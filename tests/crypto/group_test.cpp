#include "crypto/group.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/error.h"
#include "crypto/modmath.h"
#include "stats/rng.h"

namespace simulcast::crypto {
namespace {

// The largest safe prime below 2^63 (p = 2q + 1, 4 generates the QRs): the
// top of the range the group's Montgomery arithmetic accepts.
constexpr std::uint64_t kTopP = 9223372036854771239ULL;
constexpr std::uint64_t kTopQ = 4611686018427385619ULL;

// The standard group and the largest group the bound allows.
std::vector<SchnorrGroup> reference_groups() {
  return {SchnorrGroup::standard(), SchnorrGroup(kTopP, kTopQ, 4)};
}

// The membership test as it reads in the definition of the subgroup.
bool reference_is_element(const SchnorrGroup& g, std::uint64_t a) {
  return a != 0 && a < g.p() && powmod(a, g.q(), g.p()) == 1;
}

// prod_j c_j^(x^j) mod p with the reference kernels, Horner from the top.
std::uint64_t reference_horner(const SchnorrGroup& g, const std::vector<std::uint64_t>& c,
                               std::uint64_t x) {
  std::uint64_t acc = 1;
  for (std::size_t j = c.size(); j-- > 0;) acc = mulmod(powmod(acc, x, g.p()), c[j], g.p());
  return acc;
}

TEST(SchnorrGroup, StandardParametersValidate) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_TRUE(is_prime_u64(g.p()));
  EXPECT_TRUE(is_prime_u64(g.q()));
  EXPECT_EQ(g.p(), 2 * g.q() + 1);
  EXPECT_TRUE(g.is_element(g.g()));
  EXPECT_TRUE(g.is_element(g.h()));
  EXPECT_NE(g.g(), g.h());
}

TEST(SchnorrGroup, RejectsBadParameters) {
  EXPECT_THROW(SchnorrGroup(15, 7, 4), UsageError);            // p composite
  EXPECT_THROW(SchnorrGroup(23, 9, 4), UsageError);            // q composite
  EXPECT_THROW(SchnorrGroup(23, 7, 4), UsageError);            // p != 2q+1
  EXPECT_THROW(SchnorrGroup(23, 11, 5), UsageError);           // 5^11 != 1 mod 23
  EXPECT_THROW(SchnorrGroup(23, 11, 1), UsageError);           // trivial g
  // A safe prime above 2^63, with 4 of order q: valid but for the bound.
  EXPECT_THROW(SchnorrGroup(9223372036854778487ULL, 4611686018427389243ULL, 4), UsageError);
  EXPECT_NO_THROW(SchnorrGroup(kTopP, kTopQ, 4));
}

TEST(SchnorrGroup, SmallGroupArithmetic) {
  // p = 23 = 2*11 + 1; QRs mod 23: g = 4.
  const SchnorrGroup g(23, 11, 4);
  EXPECT_EQ(g.exp_g(Zq(0, 11)), 1u);
  EXPECT_EQ(g.exp_g(Zq(1, 11)), 4u);
  EXPECT_EQ(g.exp_g(Zq(2, 11)), 16u);
  EXPECT_EQ(g.mul(4, 16), 64 % 23);
  EXPECT_EQ(g.mul(g.exp_g(Zq(3, 11)), invmod(g.exp_g(Zq(3, 11)), g.p())), 1u);
}

TEST(SchnorrGroup, ExponentHomomorphism) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  HmacDrbg drbg(1, "grp");
  for (int i = 0; i < 10; ++i) {
    const Zq a = g.sample_exponent(drbg);
    const Zq b = g.sample_exponent(drbg);
    EXPECT_EQ(g.mul(g.exp_g(a), g.exp_g(b)), g.exp_g(a + b));
    EXPECT_EQ(g.exp(g.exp_g(a), b), g.exp_g(a * b));
  }
}

TEST(SchnorrGroup, ExponentModulusChecked) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_THROW((void)g.exp_g(Zq(1, 101)), UsageError);
}

TEST(SchnorrGroup, IsElementRejectsNonResidues) {
  const SchnorrGroup g(23, 11, 4);
  // QRs mod 23 are {1,2,3,4,6,8,9,12,13,16,18}; 5 and 7 are not.
  EXPECT_FALSE(g.is_element(5));
  EXPECT_FALSE(g.is_element(7));
  EXPECT_FALSE(g.is_element(0));
  EXPECT_FALSE(g.is_element(23));
  EXPECT_TRUE(g.is_element(2));
  EXPECT_TRUE(g.is_element(1));
  for (std::uint64_t a = 0; a < 1024; ++a)
    EXPECT_EQ(g.is_element(a), reference_is_element(g, a)) << "a=" << a;
}

TEST(SchnorrGroup, IsElementMatchesEulerReference) {
  // Near 0, across p, and over seeded 64-bit values.
  stats::Rng rng(17);
  for (const SchnorrGroup& g : reference_groups()) {
    std::vector<std::uint64_t> inputs;
    for (std::uint64_t a = 0; a < 100000; ++a) inputs.push_back(a);
    for (std::uint64_t a = g.p() - 100000; a < g.p() + 100000; ++a) inputs.push_back(a);
    for (int i = 0; i < 1000000; ++i) inputs.push_back(rng());
    int mismatches = 0;
    std::size_t members = 0;
    for (const std::uint64_t a : inputs) {
      const bool is = g.is_element(a);
      members += is ? 1 : 0;
      if (is != reference_is_element(g, a) && ++mismatches <= 5)
        ADD_FAILURE() << "p=" << g.p() << " a=" << a;
    }
    // About half of [1, p) are residues; a vacuous pass would show here.
    EXPECT_GT(members, inputs.size() / 20) << "p=" << g.p();
  }
}

TEST(SchnorrGroup, OperationsMatchModmathReference) {
  stats::Rng rng(18);
  for (const SchnorrGroup& g : reference_groups()) {
    const std::uint64_t p = g.p();
    // Unreduced 64-bit operands too, as a forged wire value could be.
    std::vector<std::uint64_t> operands = {0, 1, p - 1, p, p + 1, ~std::uint64_t{0}};
    for (int i = 0; i < 2000; ++i) operands.push_back(rng());
    for (const std::uint64_t a : operands) {
      const std::uint64_t b = rng();
      const Zq e(rng(), g.q());
      const Zq f(rng(), g.q());
      SCOPED_TRACE(::testing::Message() << "p=" << p << " a=" << a << " b=" << b);
      EXPECT_EQ(g.mul(a, b), mulmod(a, b, p));
      EXPECT_EQ(g.exp(a, e), powmod(a, e.value(), p));
      EXPECT_EQ(g.exp_g(e), powmod(g.g(), e.value(), p));
      EXPECT_EQ(g.exp_gh(e, f),
                mulmod(powmod(g.g(), e.value(), p), powmod(g.h(), f.value(), p), p));
      const std::vector<std::uint64_t> c = {a, b, rng(), rng() % p};
      EXPECT_EQ(g.horner(c, f), reference_horner(g, c, f.value()));
    }
    EXPECT_EQ(g.horner({}, Zq(5, g.q())), 1u);
  }
}

TEST(SchnorrGroup, CopyOutlivesItsSource) {
  const SchnorrGroup& standard = SchnorrGroup::standard();
  auto source = std::make_unique<SchnorrGroup>(standard.p(), standard.q(), standard.g());
  const SchnorrGroup copy = *source;
  HmacDrbg drbg(3, "copy");
  const Zq a = source->sample_exponent(drbg);
  const Zq b = source->sample_exponent(drbg);
  const std::vector<std::uint64_t> c = {source->exp_g(a), source->exp(source->h(), b), 12345};
  const std::uint64_t g_a = source->exp_g(a);
  const std::uint64_t gh = source->exp_gh(a, b);
  const std::uint64_t horner = source->horner(c, b);
  source.reset();
  EXPECT_EQ(copy.exp_g(a), g_a);
  EXPECT_EQ(copy.exp_gh(a, b), gh);
  EXPECT_EQ(copy.horner(c, b), horner);
  EXPECT_EQ(copy.h(), standard.h());
}

TEST(SchnorrGroup, HashToGroupLandsInSubgroup) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  for (const char* label : {"a", "b", "c", "longer-label"}) {
    const std::uint64_t e = g.hash_to_group(label);
    EXPECT_TRUE(g.is_element(e)) << label;
    EXPECT_NE(e, 1u);
  }
}

TEST(SchnorrGroup, HashToGroupIsDeterministicAndSeparated) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_EQ(g.hash_to_group("x"), g.hash_to_group("x"));
  EXPECT_NE(g.hash_to_group("x"), g.hash_to_group("y"));
}

TEST(SchnorrGroup, SampleExponentInRange) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  HmacDrbg drbg(2, "exp");
  for (int i = 0; i < 50; ++i) {
    const Zq e = g.sample_exponent(drbg);
    EXPECT_EQ(e.modulus(), g.q());
    EXPECT_LT(e.value(), g.q());
  }
}

TEST(SchnorrGroup, GeneratorHasOrderQ) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  // g^q = 1 and g != 1 implies order q (q prime).
  EXPECT_EQ(powmod(g.g(), g.q(), g.p()), 1u);
  EXPECT_NE(g.g(), 1u);
  EXPECT_EQ(powmod(g.h(), g.q(), g.p()), 1u);
}

}  // namespace
}  // namespace simulcast::crypto
