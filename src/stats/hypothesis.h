// Classical hypothesis tests.  No tester or driver calls them:
// chi2_goodness_of_fit is the exact-law oracle of the distributional test
// suite (tests/testers/distributional_test.cpp), and the independence tests
// have no caller outside their own tests.
//
// chi2_independence tests H0: "bit i and the remaining bits are independent"
// on a 2 x m contingency table built from samples; the G-test is the
// likelihood-ratio variant, more robust for sparse tables.  Both reduce to
// the chi-square survival function, implemented via the regularized
// incomplete gamma function.
#pragma once

#include <cstddef>
#include <vector>

#include "base/bitvec.h"
#include "stats/empirical.h"

namespace simulcast::stats {

/// Result of a contingency-table test.
struct TestResult {
  double statistic = 0.0;      ///< chi-square or G statistic
  double degrees = 0.0;        ///< degrees of freedom
  double p_value = 1.0;        ///< survival probability under H0
  [[nodiscard]] bool rejects(double alpha) const noexcept { return p_value < alpha; }
};

/// Regularized lower incomplete gamma P(a, x) by series / continued fraction
/// (Numerical-Recipes style); a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// Survival function of the chi-square distribution with `k` d.o.f.
[[nodiscard]] double chi2_sf(double statistic, double k);

/// Pearson chi-square test of independence between bit `i` and the joint
/// value of the remaining bits, over the samples in `dist`.  Cells with zero
/// expected count are pooled away.
[[nodiscard]] TestResult chi2_independence(const EmpiricalDist& dist, std::size_t i);

/// Likelihood-ratio (G) test of the same hypothesis.
[[nodiscard]] TestResult g_test_independence(const EmpiricalDist& dist, std::size_t i);

/// Pearson goodness-of-fit of empirical samples against an exact pmf, over
/// the cells the model gives positive probability.  A sample on a cell the
/// model gives probability 0 is impossible under it, so it rejects outright
/// (p = 0).
[[nodiscard]] TestResult chi2_goodness_of_fit(const EmpiricalDist& dist, const ExactDist& model);

}  // namespace simulcast::stats
