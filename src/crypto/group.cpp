#include "crypto/group.h"

#include "base/error.h"
#include "crypto/modmath.h"
#include "crypto/sha256.h"

namespace simulcast::crypto {

namespace {

// 62-bit safe prime p = 2q + 1, verified at first use by the SchnorrGroup
// constructor; g = 2^2 generates the order-q quadratic-residue subgroup.
constexpr std::uint64_t kStandardP = 3599462771108323727ULL;
constexpr std::uint64_t kStandardQ = 1799731385554161863ULL;
constexpr std::uint64_t kStandardG = 4ULL;

}  // namespace

FixedBaseTable::FixedBaseTable(std::uint64_t base, const Montgomery& mont) : table_(kWindows) {
  // window_base walks base^(256^i); each row is that power's digit ladder.
  std::uint64_t window_base = mont.to(base);
  for (std::size_t i = 0; i < kWindows; ++i) {
    table_[i][0] = mont.one();
    for (std::size_t d = 1; d < 256; ++d) table_[i][d] = mont.mul(table_[i][d - 1], window_base);
    window_base = mont.mul(table_[i][255], window_base);
  }
}

std::uint64_t FixedBaseTable::exp(std::uint64_t e, const Montgomery& mont) const noexcept {
  // Row 0's entry starts the product (its digit-0 entry is 1), saving the
  // multiplication by one.
  std::uint64_t acc = table_[0][e & 0xff];
  for (std::size_t i = 1; i < kWindows && (e >>= 8) != 0; ++i) {
    const std::uint64_t d = e & 0xff;
    if (d != 0) acc = mont.mul(acc, table_[i][d]);
  }
  return acc;
}

SchnorrGroup::SchnorrGroup(std::uint64_t p, std::uint64_t q, std::uint64_t g)
    : p_(p), q_(q), g_(g) {
  if (!is_prime_u64(p)) throw UsageError("SchnorrGroup: p not prime");
  if (!is_prime_u64(q)) throw UsageError("SchnorrGroup: q not prime");
  if (p != 2 * q + 1) throw UsageError("SchnorrGroup: p != 2q + 1");
  mont_ = Montgomery(p);  // throws UsageError for p >= 2^63
  if (g <= 1 || g >= p || powmod(g, q, p) != 1)
    throw UsageError("SchnorrGroup: g not an order-q element");
  h_ = hash_to_group("simulcast/pedersen-h/v1");
  g_table_ = FixedBaseTable(g_, mont_);
  h_table_ = FixedBaseTable(h_, mont_);
}

const SchnorrGroup& SchnorrGroup::standard() {
  static const SchnorrGroup group(kStandardP, kStandardQ, kStandardG);
  return group;
}

void SchnorrGroup::check_exponent(const Zq& e) const {
  if (e.modulus() != q_) throw UsageError("SchnorrGroup::exp: exponent modulus != q");
}

std::uint64_t SchnorrGroup::exp_g(const Zq& e) const {
  check_exponent(e);
  return mont_.from(g_table_.exp(e.value(), mont_));
}

std::uint64_t SchnorrGroup::exp_gh(const Zq& a, const Zq& b) const {
  check_exponent(a);
  check_exponent(b);
  return mont_.from(mont_.mul(g_table_.exp(a.value(), mont_), h_table_.exp(b.value(), mont_)));
}

std::uint64_t SchnorrGroup::exp(std::uint64_t base, const Zq& e) const {
  check_exponent(e);
  return mont_.from(mont_.pow(mont_.to(base), e.value()));
}

std::uint64_t SchnorrGroup::horner(std::span<const std::uint64_t> c, const Zq& x) const {
  check_exponent(x);
  std::uint64_t acc = mont_.one();
  for (auto it = c.rbegin(); it != c.rend(); ++it)
    acc = mont_.mul(mont_.pow(acc, x.value()), mont_.to(*it));
  return mont_.from(acc);
}

std::uint64_t SchnorrGroup::mul(std::uint64_t a, std::uint64_t b) const {
  // to(a) < p, so one more reduction of to(a) * b leaves exactly ab mod p.
  return mont_.mul(mont_.to(a), b);
}

bool SchnorrGroup::is_element(std::uint64_t a) const {
  // The subgroup of order q = (p - 1)/2 is the quadratic residues, and by
  // Euler's criterion a^q = (a/p) mod p for 0 < a < p, so a^q = 1 exactly
  // when the Legendre symbol (a/p) is 1.
  return a != 0 && a < p_ && jacobi(a, p_) == 1;
}

std::uint64_t SchnorrGroup::hash_to_group(std::string_view label) const {
  // Squaring any nonzero residue lands in the QR subgroup, which has prime
  // order q, so the result generates it unless it equals 1.
  std::uint64_t counter = 0;
  for (;;) {
    ByteWriter w;
    w.str(label);
    w.u64(p_);
    w.u64(counter++);
    const Digest d = sha256(w.data());
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | d[static_cast<std::size_t>(i)];
    x %= p_;
    if (x <= 1) continue;
    const std::uint64_t candidate = mulmod(x, x, p_);
    if (candidate != 1) return candidate;
  }
}

}  // namespace simulcast::crypto
