// Input distribution ensembles (Section 2 of the paper).
//
// An InputEnsemble models the paper's D = {D^(k)}: a distribution over the
// n parties' input bits.  At simulation scale the distributions we study do
// not vary with k, so an ensemble is a sampler plus - for n <= 20 - an
// exact pmf, which lets the class-membership computations of Section 5 run
// without sampling noise.
//
// The catalogue covers every family the paper's arguments touch:
//   - product / uniform / singleton        (members of every class)
//   - copy, xor-parity, noisy-copy         (outside Ψ_{C,n}: Lemma 5.2 fuel)
//   - near-singleton perturbations          (inside Ψ_{L,n}, non-trivial)
//   - mixtures                              (correlated; outside both)
//   - PRF-correlated                        (statistically far from product
//     but computationally independent for distinguishers without the key:
//     the witness separating Ψ_{L,n} from Ψ_{C,n} in experiment E1)
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "stats/empirical.h"
#include "stats/rng.h"

namespace simulcast::dist {

class InputEnsemble {
 public:
  virtual ~InputEnsemble() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t bits() const = 0;

  /// Draws one input vector.
  [[nodiscard]] virtual BitVec sample(stats::Rng& rng) const = 0;

  /// Exact pmf when available (all catalogue ensembles provide it).
  [[nodiscard]] virtual std::optional<stats::ExactDist> exact() const = 0;
};

/// Independent Bernoulli(p_i) bits (the class Φ_n of Section 5.1).
class ProductEnsemble final : public InputEnsemble {
 public:
  explicit ProductEnsemble(std::vector<double> p);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t bits() const override { return p_.size(); }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  std::vector<double> p_;
};

/// Uniform over {0,1}^n.
[[nodiscard]] std::unique_ptr<InputEnsemble> make_uniform(std::size_t n);

/// Point mass on a fixed vector (the class Singleton).
class SingletonEnsemble final : public InputEnsemble {
 public:
  explicit SingletonEnsemble(BitVec value) : value_(std::move(value)) {}

  [[nodiscard]] std::string name() const override { return "singleton:" + value_.to_string(); }
  [[nodiscard]] std::size_t bits() const override { return value_.size(); }
  [[nodiscard]] BitVec sample(stats::Rng&) const override { return value_; }
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  BitVec value_;
};

/// x_0..x_{n-2} uniform; x_{n-1} = x_0 with probability 1-eps, flipped with
/// probability eps.  eps = 0 is the hard-copy distribution (maximally
/// correlated); eps = 0.5 degenerates to uniform.
class NoisyCopyEnsemble final : public InputEnsemble {
 public:
  NoisyCopyEnsemble(std::size_t n, double eps);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t bits() const override { return n_; }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  std::size_t n_;
  double eps_;
};

/// Uniform over {0,1}^n conditioned on even parity (every bit is marginally
/// uniform and any n-1 bits are jointly uniform, yet the vector is far from
/// any product distribution).
class EvenParityEnsemble final : public InputEnsemble {
 public:
  explicit EvenParityEnsemble(std::size_t n);

  [[nodiscard]] std::string name() const override { return "even-parity"; }
  [[nodiscard]] std::size_t bits() const override { return n_; }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  std::size_t n_;
};

/// Convex mixture: with probability `weight` sample from `a`, else `b`.
class MixtureEnsemble final : public InputEnsemble {
 public:
  MixtureEnsemble(std::shared_ptr<const InputEnsemble> a,
                  std::shared_ptr<const InputEnsemble> b, double weight);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t bits() const override { return a_->bits(); }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  std::shared_ptr<const InputEnsemble> a_;
  std::shared_ptr<const InputEnsemble> b_;
  double weight_;
};

/// x_0..x_{n-2} uniform; x_{n-1} = PRF_key(x_0..x_{n-2}) for a fixed secret
/// key.  Statistically this is a deterministic correlation (far from every
/// product distribution); to any distinguisher that does not know the key it
/// is indistinguishable from uniform.  This is the finite-scale stand-in for
/// the paper's computationally-independent-but-not-locally-independent
/// ensembles separating D(G) from D(CR).
class PrfCorrelatedEnsemble final : public InputEnsemble {
 public:
  PrfCorrelatedEnsemble(std::size_t n, std::uint64_t key);

  [[nodiscard]] std::string name() const override { return "prf-correlated"; }
  [[nodiscard]] std::size_t bits() const override { return n_; }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

  /// The hidden last bit, exposed for white-box tests.
  [[nodiscard]] bool prf_bit(const BitVec& prefix) const;

 private:
  std::size_t n_;
  std::uint64_t key_;
};

/// The distribution D' built in the proof of Lemma 6.2 (Appendix A.2):
/// coordinate `ell` is Bernoulli(p_ell) and every other coordinate is
/// pinned to the corresponding bit of `rest` (which has n-1 bits, indexed
/// in increasing coordinate order skipping ell).
class PinnedCoordinateEnsemble final : public InputEnsemble {
 public:
  PinnedCoordinateEnsemble(std::size_t n, std::size_t ell, double p_ell, BitVec rest);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t bits() const override { return n_; }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override;
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override;

 private:
  std::size_t n_;
  std::size_t ell_;
  double p_ell_;
  BitVec rest_;
};

}  // namespace simulcast::dist
