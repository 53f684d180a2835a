// Finite-sample confidence machinery.
//
// The paper's definitional quantities are all of the form "|p - q| is
// negligible in k".  Our Monte-Carlo testers estimate p and q from N
// executions and must decide whether an observed gap is real or noise.  We
// use Hoeffding's inequality for distribution-free two-sided bounds, and a
// Budget splits one verdict's error probability over everything it tests.
// Verdict rules live in the testers; this header supplies only the
// mathematics.  The Wilson interval, normal quantile and sample-count
// helpers below it have no caller outside their own tests.
#pragma once

#include <algorithm>
#include <cstddef>

namespace simulcast::stats {

/// Two-sided Hoeffding radius: with probability >= 1 - alpha the empirical
/// mean of `samples` i.i.d. [0,1]-valued draws is within this radius of the
/// true mean.  radius = sqrt(ln(2/alpha) / (2 * samples)).
[[nodiscard]] double hoeffding_radius(std::size_t samples, double alpha);

/// Radius for the difference of two independent empirical means estimated
/// from `samples_a` and `samples_b` draws (union bound over both sides).
[[nodiscard]] double hoeffding_diff_radius(std::size_t samples_a, std::size_t samples_b,
                                           double alpha);

/// One verdict's confidence budget.  A verdict that tests `estimates`
/// empirical quantities wants all of them inside their radii with
/// probability >= 1 - alpha, so the union bound grants each the share
/// alpha / estimates (a verdict that tests nothing keeps all of alpha).
/// The radii are Hoeffding's at that share.
class Budget {
 public:
  Budget(double alpha, std::size_t estimates) noexcept
      : share_(alpha / static_cast<double>(std::max<std::size_t>(estimates, 1))) {}

  /// Radius of one empirical mean of `samples` draws in [0, 1].
  [[nodiscard]] double mean_radius(std::size_t samples) const {
    return hoeffding_radius(samples, share_);
  }

  /// Radius of the difference of two independent empirical means.
  [[nodiscard]] double diff_radius(std::size_t samples_a, std::size_t samples_b) const {
    return hoeffding_diff_radius(samples_a, samples_b, share_);
  }

 private:
  double share_;
};

/// Wilson score interval for a binomial proportion.
struct Interval {
  double low = 0.0;
  double high = 0.0;
  [[nodiscard]] bool contains(double p) const noexcept { return low <= p && p <= high; }
};

/// Wilson interval at confidence 1 - alpha for `successes` out of `trials`.
[[nodiscard]] Interval wilson_interval(std::size_t successes, std::size_t trials, double alpha);

/// Inverse of the standard normal CDF (Acklam's rational approximation;
/// absolute error < 1.2e-8 — ample for confidence levels).
[[nodiscard]] double normal_quantile(double p);

/// Minimum sample count such that hoeffding_radius(samples, alpha) <= radius.
[[nodiscard]] std::size_t samples_for_radius(double radius, double alpha);

}  // namespace simulcast::stats
