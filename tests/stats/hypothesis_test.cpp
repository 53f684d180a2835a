#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::stats {
namespace {

EmpiricalDist sample_product(Rng& rng, const std::vector<double>& p, int n_samples) {
  EmpiricalDist d(p.size());
  for (int s = 0; s < n_samples; ++s) {
    BitVec v(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) v.set(i, rng.bernoulli(p[i]));
    d.add(v);
  }
  return d;
}

EmpiricalDist sample_copy(Rng& rng, int n_samples) {
  // bit1 = bit0, maximal dependence.
  EmpiricalDist d(2);
  for (int s = 0; s < n_samples; ++s) {
    const bool b = rng.bit();
    BitVec v(2);
    v.set(0, b);
    v.set(1, b);
    d.add(v);
  }
  return d;
}

TEST(RegularizedGamma, KnownValues) {
  // P(1, x) = 1 - e^{-x}
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(1.0, 5.0), 1.0 - std::exp(-5.0), 1e-10);
  // P(0.5, x) = erf(sqrt(x))
  EXPECT_NEAR(regularized_gamma_p(0.5, 1.0), std::erf(1.0), 1e-9);
  EXPECT_NEAR(regularized_gamma_p(0.5, 4.0), std::erf(2.0), 1e-9);
}

TEST(RegularizedGamma, Boundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(2.0, 100.0), 1.0, 1e-12);
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), UsageError);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), UsageError);
}

TEST(Chi2Sf, KnownQuantiles) {
  // Chi-square with 1 dof: sf(3.841) ~ 0.05; 2 dof: sf(5.991) ~ 0.05.
  EXPECT_NEAR(chi2_sf(3.841459, 1.0), 0.05, 1e-4);
  EXPECT_NEAR(chi2_sf(5.991465, 2.0), 0.05, 1e-4);
  EXPECT_DOUBLE_EQ(chi2_sf(0.0, 3.0), 1.0);
}

TEST(Chi2Independence, AcceptsIndependentBits) {
  Rng rng(101);
  const EmpiricalDist d = sample_product(rng, {0.5, 0.5, 0.3}, 20000);
  for (std::size_t i = 0; i < 3; ++i) {
    const TestResult r = chi2_independence(d, i);
    EXPECT_FALSE(r.rejects(0.001)) << "bit " << i << " p=" << r.p_value;
  }
}

TEST(Chi2Independence, RejectsCopiedBit) {
  Rng rng(202);
  const EmpiricalDist d = sample_copy(rng, 5000);
  const TestResult r = chi2_independence(d, 1);
  EXPECT_TRUE(r.rejects(1e-6));
  EXPECT_GT(r.statistic, 1000.0);
}

TEST(Chi2Independence, OutOfRangeBitThrows) {
  EmpiricalDist d(2);
  EXPECT_THROW((void)chi2_independence(d, 2), UsageError);
}

TEST(Chi2Independence, EmptyDistributionIsInconclusive) {
  EmpiricalDist d(2);
  const TestResult r = chi2_independence(d, 0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(Chi2Independence, ConstantBitIsInconclusive) {
  // A bit that never varies has zero dof; test must not reject.
  EmpiricalDist d(2);
  for (int i = 0; i < 100; ++i) {
    BitVec v(2);
    v.set(1, i % 2 == 0);
    d.add(v);
  }
  const TestResult r = chi2_independence(d, 0);
  EXPECT_FALSE(r.rejects(0.05));
}

TEST(GTest, AgreesWithChi2OnStrongDependence) {
  Rng rng(303);
  const EmpiricalDist d = sample_copy(rng, 5000);
  EXPECT_TRUE(g_test_independence(d, 0).rejects(1e-6));
  EXPECT_TRUE(g_test_independence(d, 1).rejects(1e-6));
}

TEST(GTest, AcceptsIndependentBits) {
  Rng rng(404);
  const EmpiricalDist d = sample_product(rng, {0.2, 0.8}, 20000);
  EXPECT_FALSE(g_test_independence(d, 0).rejects(0.001));
}

TEST(GoodnessOfFit, AcceptsMatchingModel) {
  Rng rng(505);
  const std::vector<double> p = {0.3, 0.6};
  const EmpiricalDist d = sample_product(rng, p, 20000);
  const TestResult r = chi2_goodness_of_fit(d, stats::ExactDist::product(p));
  EXPECT_FALSE(r.rejects(0.001)) << "p=" << r.p_value;
}

TEST(GoodnessOfFit, RejectsWrongModel) {
  Rng rng(606);
  const EmpiricalDist d = sample_product(rng, {0.3, 0.6}, 20000);
  const TestResult r = chi2_goodness_of_fit(d, stats::ExactDist::product({0.5, 0.5}));
  EXPECT_TRUE(r.rejects(1e-6));
}

TEST(GoodnessOfFit, WidthMismatchThrows) {
  EmpiricalDist d(2);
  EXPECT_THROW((void)chi2_goodness_of_fit(d, ExactDist::uniform(3)), UsageError);
}

TEST(GoodnessOfFit, ObservationOnZeroProbabilityCellRejects) {
  // The even-parity law over 5 bits puts mass 1/16 on each even-parity
  // vector and none on the odd ones.  62 samples on each of the 16 even
  // vectors fit it almost exactly; 8 odd-parity samples are impossible
  // under it, however small a share of the 1000 they are.
  std::vector<double> pmf(32, 0.0);
  EmpiricalDist d(5);
  for (std::size_t v = 0; v < 32; ++v) {
    if (BitVec(5, v).parity()) continue;
    pmf[v] = 1.0 / 16.0;
    for (int i = 0; i < 62; ++i) d.add(BitVec(5, v));
  }
  for (int i = 0; i < 8; ++i) d.add(BitVec(5, 1));
  const TestResult r = chi2_goodness_of_fit(d, ExactDist(5, std::move(pmf)));
  EXPECT_EQ(r.p_value, 0.0) << "stat=" << r.statistic;
  EXPECT_TRUE(r.rejects(1e-12));
}

}  // namespace
}  // namespace simulcast::stats
