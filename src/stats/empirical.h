// Empirical distributions over n-bit vectors.
//
// EmpiricalDist accumulates sampled n-bit vectors into per-value counts;
// the Sb tester (testers/sb_tester.h) compares the real and ideal joint
// laws of (x, W) by their total-variation distance.  Its event queries
// (prob, joint, conditional, marginal_one) have no caller outside their
// own tests.  ExactDist holds an explicit pmf over {0,1}^n (n small) for
// the distribution-class computations of Section 5, where exact arithmetic
// avoids any sampling noise.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "base/bitvec.h"

namespace simulcast::stats {

/// An event over n-bit vectors.
using Event = std::function<bool(const BitVec&)>;

/// Sample-based distribution over {0,1}^n.
class EmpiricalDist {
 public:
  explicit EmpiricalDist(std::size_t bits) : bits_(bits) {}

  void add(const BitVec& sample);

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t count() const noexcept { return total_; }

  /// Empirical Pr[event].  Returns 0 when no samples were added.
  [[nodiscard]] double prob(const Event& event) const;

  /// Empirical Pr[a ∧ b].
  [[nodiscard]] double joint(const Event& a, const Event& b) const;

  /// Empirical Pr[a | b]; nullopt when Pr[b] = 0.
  [[nodiscard]] std::optional<double> conditional(const Event& a, const Event& b) const;

  /// Empirical marginal Pr[bit i = 1].
  [[nodiscard]] double marginal_one(std::size_t i) const;

  /// Distinct observed values with their counts, sorted by value.
  [[nodiscard]] const std::map<BitVec, std::size_t>& counts() const noexcept { return counts_; }

  /// Total-variation distance to another empirical distribution over the
  /// same bit width.
  [[nodiscard]] double tv_distance(const EmpiricalDist& other) const;

 private:
  std::size_t bits_;
  std::size_t total_ = 0;
  std::map<BitVec, std::size_t> counts_;
};

/// Exact pmf over {0,1}^n, n <= 20.  Probabilities are stored densely,
/// indexed by BitVec::packed().
class ExactDist {
 public:
  /// `pmf[v]` is Pr[X = v]; must sum to 1 within 1e-9.
  ExactDist(std::size_t bits, std::vector<double> pmf);

  /// Point mass on `value`.
  static ExactDist singleton(const BitVec& value);

  /// Product of independent Bernoulli(p_i) bits.
  static ExactDist product(const std::vector<double>& p);

  /// Uniform over {0,1}^bits.
  static ExactDist uniform(std::size_t bits);

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] double pmf(const BitVec& v) const;
  [[nodiscard]] const std::vector<double>& raw_pmf() const noexcept { return pmf_; }

  /// Pr[X_S = u] for the coordinates in `set` (the paper's D_B).
  [[nodiscard]] double marginal(const std::vector<std::size_t>& set, const BitVec& u) const;

  /// Pr[X_S = u | X_T = w]; nullopt when Pr[X_T = w] = 0.
  [[nodiscard]] std::optional<double> conditional(const std::vector<std::size_t>& set,
                                                  const BitVec& u,
                                                  const std::vector<std::size_t>& cond_set,
                                                  const BitVec& w) const;

  /// Product of this distribution's single-bit marginals — the natural
  /// candidate product distribution for the Ψ_{C,n} membership test.
  [[nodiscard]] ExactDist product_of_marginals() const;

  /// Total-variation distance to another exact distribution.
  [[nodiscard]] double tv_distance(const ExactDist& other) const;

 private:
  std::size_t bits_;
  std::vector<double> pmf_;
};

}  // namespace simulcast::stats
