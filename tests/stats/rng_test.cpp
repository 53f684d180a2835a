#include "stats/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace simulcast::stats {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(123);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBound)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / 10 - 1200);
    EXPECT_LT(c, kSamples / 10 + 1200);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(99);
  constexpr int kSamples = 100000;
  int ones = 0;
  for (int i = 0; i < kSamples; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / kSamples, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, Uniform01Range) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkIsPureAndLabelled) {
  const Rng parent(17);
  Rng c1 = parent.fork("alpha");
  Rng c2 = parent.fork("alpha");
  Rng c3 = parent.fork("beta");
  Rng c4 = parent.fork("alpha", 1);
  EXPECT_EQ(c1(), c2());
  EXPECT_NE(c1(), c3());
  EXPECT_NE(c2(), c4());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(23);
  Rng b(23);
  (void)a.fork("child");
  EXPECT_EQ(a(), b());
}

TEST(Rng, ForkedStreamsLookIndependent) {
  const Rng parent(29);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i) {
    Rng child = parent.fork("party", i);
    seen.insert(child());
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(MixLabel, DistinctLabelsDistinctValues) {
  EXPECT_NE(mix_label("a"), mix_label("b"));
  EXPECT_NE(mix_label(""), mix_label("a"));
  EXPECT_EQ(mix_label("proto"), mix_label("proto"));
}

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  EXPECT_EQ(split_mix64(s1), split_mix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace simulcast::stats
