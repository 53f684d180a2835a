#include "stats/confidence.h"

#include <gtest/gtest.h>

#include <cmath>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::stats {
namespace {

TEST(Hoeffding, KnownValue) {
  // radius = sqrt(ln(2/alpha) / (2n)); alpha = 2/e^2 gives ln = 2.
  const double alpha = 2.0 / std::exp(2.0);
  EXPECT_NEAR(hoeffding_radius(100, alpha), std::sqrt(2.0 / 200.0), 1e-12);
}

TEST(Hoeffding, ShrinksWithSamples) {
  EXPECT_GT(hoeffding_radius(100, 0.01), hoeffding_radius(10000, 0.01));
}

TEST(Hoeffding, GrowsWithConfidence) {
  EXPECT_GT(hoeffding_radius(100, 0.001), hoeffding_radius(100, 0.1));
}

TEST(Hoeffding, RejectsBadArguments) {
  EXPECT_THROW((void)hoeffding_radius(0, 0.05), UsageError);
  EXPECT_THROW((void)hoeffding_radius(10, 0.0), UsageError);
  EXPECT_THROW((void)hoeffding_radius(10, 1.0), UsageError);
}

TEST(Hoeffding, DiffRadiusIsSumOfParts) {
  const double r = hoeffding_diff_radius(100, 400, 0.02);
  EXPECT_NEAR(r, hoeffding_radius(100, 0.01) + hoeffding_radius(400, 0.01), 1e-12);
}

TEST(Hoeffding, EmpiricalCoverage) {
  // 1000 repetitions of estimating p = 0.5 from 500 draws: the true mean
  // must fall inside the radius nearly always (far more than 1 - alpha).
  Rng rng(42);
  constexpr std::size_t kDraws = 500;
  constexpr double kAlpha = 0.05;
  const double radius = hoeffding_radius(kDraws, kAlpha);
  int covered = 0;
  for (int rep = 0; rep < 1000; ++rep) {
    int ones = 0;
    for (std::size_t i = 0; i < kDraws; ++i) ones += rng.bit() ? 1 : 0;
    const double mean = static_cast<double>(ones) / kDraws;
    if (std::abs(mean - 0.5) <= radius) ++covered;
  }
  EXPECT_GE(covered, 950);
}

TEST(Budget, SplitsAlphaEvenlyOverEstimates) {
  const Budget budget(0.01, 8);
  EXPECT_EQ(budget.mean_radius(100), hoeffding_radius(100, 0.01 / 8.0));
  EXPECT_EQ(budget.diff_radius(100, 400), hoeffding_diff_radius(100, 400, 0.01 / 8.0));
}

TEST(Budget, NothingTestedKeepsAllOfAlpha) {
  EXPECT_EQ(Budget(0.01, 0).mean_radius(100), hoeffding_radius(100, 0.01));
  EXPECT_EQ(Budget(0.01, 1).diff_radius(100, 50), hoeffding_diff_radius(100, 50, 0.01));
}

TEST(NormalQuantile, StandardValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829, 1e-4);
  EXPECT_NEAR(normal_quantile(0.001), -3.090232, 1e-4);
}

TEST(NormalQuantile, RejectsBadArguments) {
  EXPECT_THROW((void)normal_quantile(0.0), UsageError);
  EXPECT_THROW((void)normal_quantile(1.0), UsageError);
}

TEST(Wilson, ContainsTruthForFairCoin) {
  const Interval iv = wilson_interval(498, 1000, 0.05);
  EXPECT_TRUE(iv.contains(0.5));
  EXPECT_GT(iv.low, 0.45);
  EXPECT_LT(iv.high, 0.55);
}

TEST(Wilson, ExtremeCounts) {
  const Interval zero = wilson_interval(0, 100, 0.05);
  EXPECT_DOUBLE_EQ(zero.low, std::min(zero.low, 0.0));
  EXPECT_GT(zero.high, 0.0);
  const Interval all = wilson_interval(100, 100, 0.05);
  EXPECT_LT(all.low, 1.0);
  EXPECT_GE(all.high, all.low);
}

TEST(Wilson, RejectsBadArguments) {
  EXPECT_THROW((void)wilson_interval(1, 0, 0.05), UsageError);
  EXPECT_THROW((void)wilson_interval(5, 4, 0.05), UsageError);
}

TEST(SamplesForRadius, InvertsRadius) {
  const std::size_t n = samples_for_radius(0.01, 0.01);
  EXPECT_LE(hoeffding_radius(n, 0.01), 0.01);
  EXPECT_GT(hoeffding_radius(n - 1, 0.01), 0.01);
}

}  // namespace
}  // namespace simulcast::stats
