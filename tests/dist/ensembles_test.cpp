#include "dist/ensembles.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace simulcast::dist {
namespace {

TEST(ProductEnsemble, SampleMatchesExact) {
  const ProductEnsemble ens({0.2, 0.8, 0.5});
  stats::Rng rng(1);
  stats::EmpiricalDist emp(3);
  for (int i = 0; i < 50000; ++i) emp.add(ens.sample(rng));
  const auto exact = ens.exact();
  ASSERT_TRUE(exact.has_value());
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_NEAR(emp.prob([&](const BitVec& s) { return s == BitVec(3, v); }),
                exact->pmf(BitVec(3, v)), 0.01);
  }
}

TEST(ProductEnsemble, ValidatesProbabilities) {
  EXPECT_THROW(ProductEnsemble({0.5, 1.5}), UsageError);
  EXPECT_THROW(ProductEnsemble({-0.1}), UsageError);
  EXPECT_THROW(ProductEnsemble({}), UsageError);
}

TEST(UniformEnsemble, IsFairPerBit) {
  const auto ens = make_uniform(4);
  stats::Rng rng(2);
  int ones[4] = {0, 0, 0, 0};
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    const BitVec v = ens->sample(rng);
    for (std::size_t j = 0; j < 4; ++j) ones[j] += v.get(j) ? 1 : 0;
  }
  for (int c : ones) EXPECT_NEAR(static_cast<double>(c) / reps, 0.5, 0.02);
}

TEST(SingletonEnsemble, AlwaysSameValue) {
  const SingletonEnsemble ens(BitVec::from_string("101"));
  stats::Rng rng(3);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ens.sample(rng).to_string(), "101");
  EXPECT_EQ(ens.exact()->pmf(BitVec::from_string("101")), 1.0);
}

TEST(NoisyCopyEnsemble, ZeroNoiseIsHardCopy) {
  const NoisyCopyEnsemble ens(4, 0.0);
  stats::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const BitVec v = ens.sample(rng);
    EXPECT_EQ(v.get(3), v.get(0));
  }
}

TEST(NoisyCopyEnsemble, HalfNoiseIsUniform) {
  const NoisyCopyEnsemble ens(3, 0.5);
  const auto exact = ens.exact();
  ASSERT_TRUE(exact.has_value());
  EXPECT_NEAR(exact->tv_distance(stats::ExactDist::uniform(3)), 0.0, 1e-12);
}

TEST(NoisyCopyEnsemble, ExactMatchesSampling) {
  const NoisyCopyEnsemble ens(3, 0.1);
  stats::Rng rng(5);
  stats::EmpiricalDist emp(3);
  for (int i = 0; i < 50000; ++i) emp.add(ens.sample(rng));
  const auto exact = ens.exact();
  for (std::size_t v = 0; v < 8; ++v)
    EXPECT_NEAR(emp.prob([&](const BitVec& s) { return s == BitVec(3, v); }),
                exact->pmf(BitVec(3, v)), 0.01);
}

TEST(EvenParityEnsemble, AlwaysEvenParity) {
  const EvenParityEnsemble ens(5);
  stats::Rng rng(6);
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(ens.sample(rng).parity());
}

TEST(EvenParityEnsemble, MarginalsAreUniform) {
  const EvenParityEnsemble ens(4);
  const auto exact = ens.exact();
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(exact->marginal({i}, BitVec(1, 1)), 0.5, 1e-12);
}

TEST(MixtureEnsemble, WeightsRespected) {
  const auto a = std::make_shared<SingletonEnsemble>(BitVec::from_string("11"));
  const auto b = std::make_shared<SingletonEnsemble>(BitVec::from_string("00"));
  const MixtureEnsemble mix(a, b, 0.25);
  const auto exact = mix.exact();
  EXPECT_NEAR(exact->pmf(BitVec::from_string("11")), 0.25, 1e-12);
  EXPECT_NEAR(exact->pmf(BitVec::from_string("00")), 0.75, 1e-12);
}

TEST(MixtureEnsemble, ValidatesArguments) {
  const auto a = std::make_shared<SingletonEnsemble>(BitVec::from_string("11"));
  const auto b = std::make_shared<SingletonEnsemble>(BitVec::from_string("000"));
  EXPECT_THROW(MixtureEnsemble(a, b, 0.5), UsageError);
  const auto c = std::make_shared<SingletonEnsemble>(BitVec::from_string("00"));
  EXPECT_THROW(MixtureEnsemble(a, c, 1.5), UsageError);
}

TEST(PrfCorrelatedEnsemble, LastBitIsDeterministicFunctionOfPrefix) {
  const PrfCorrelatedEnsemble ens(4, 42);
  stats::Rng rng(7);
  std::map<std::uint64_t, bool> seen;
  for (int i = 0; i < 500; ++i) {
    const BitVec v = ens.sample(rng);
    const std::uint64_t prefix = v.packed() & 0b111;
    const auto it = seen.find(prefix);
    if (it != seen.end())
      EXPECT_EQ(it->second, v.get(3));
    else
      seen[prefix] = v.get(3);
  }
}

TEST(PrfCorrelatedEnsemble, KeyChangesFunction) {
  const PrfCorrelatedEnsemble e1(4, 1);
  const PrfCorrelatedEnsemble e2(4, 2);
  bool differs = false;
  for (std::uint64_t p = 0; p < 8; ++p)
    if (e1.prf_bit(BitVec(3, p)) != e2.prf_bit(BitVec(3, p))) differs = true;
  EXPECT_TRUE(differs);
}

TEST(PinnedCoordinateEnsemble, OnlyEllVaries) {
  const PinnedCoordinateEnsemble ens(4, 1, 0.3, BitVec::from_string("101"));
  stats::Rng rng(8);
  int ones = 0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    const BitVec v = ens.sample(rng);
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(2));
    EXPECT_TRUE(v.get(3));
    ones += v.get(1) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / reps, 0.3, 0.02);
}

TEST(PinnedCoordinateEnsemble, ExactPmfHasTwoAtoms) {
  const PinnedCoordinateEnsemble ens(3, 0, 0.25, BitVec::from_string("10"));
  const auto exact = ens.exact();
  EXPECT_NEAR(exact->pmf(BitVec::from_string("010")), 0.75, 1e-12);
  EXPECT_NEAR(exact->pmf(BitVec::from_string("110")), 0.25, 1e-12);
}

TEST(PinnedCoordinateEnsemble, Validation) {
  EXPECT_THROW(PinnedCoordinateEnsemble(3, 3, 0.5, BitVec::from_string("10")), UsageError);
  EXPECT_THROW(PinnedCoordinateEnsemble(3, 0, 0.5, BitVec::from_string("1")), UsageError);
  EXPECT_THROW(PinnedCoordinateEnsemble(3, 0, 1.5, BitVec::from_string("10")), UsageError);
}

}  // namespace
}  // namespace simulcast::dist
