// G**-independence tester (Definition B.2, Appendix B).
//
// G** quantifies over *fixed inputs*: for every corrupted party P_i, every
// corrupted-input vector w and every pair of honest-input vectors (r, s),
//     gap = | Pr[W <- Announced(w ⊔ s) : W_i = 1]
//           - Pr[W <- Announced(w ⊔ r) : W_i = 1] |
// must be negligible, where the probability is over protocol and adversary
// randomness only.  Unlike Definition 4.4 there is no conditioning on a
// random event, which is exactly why the paper introduces G** as the
// technically robust variant (Props. B.3/B.4 relate it to G and G*).
//
// The tester enumerates all honest-input vectors (n - t small) for each
// configured corrupted-input vector, estimates each input's probabilities
// from samples_per_input fixed-input executions, and reports the worst
// pairwise gap per corrupted party.
#pragma once

#include "testers/monte_carlo.h"

namespace simulcast::testers {

struct GssFinding {
  std::size_t party = 0;
  BitVec w;  ///< corrupted inputs
  BitVec r;
  BitVec s;
  double gap = 0.0;
};

struct GssVerdict {
  bool independent = true;
  double max_gap = 0.0;
  double radius = 0.0;
  GssFinding worst;
  std::size_t executions = 0;
};

struct GssOptions {
  std::size_t samples_per_input = 400;   ///< executions per fixed input vector
  double alpha = 0.01;
  double margin = 0.02;
  /// Corrupted-input vectors w to sweep; empty = all-zeros and all-ones.
  std::vector<BitVec> corrupted_inputs;
};

/// Largest honest-party count the sweep enumerates.  The sweep is one
/// batch, so all |w| x 2^honest x samples_per_input of its Samples are in
/// memory at once (about 170 bytes each with their input and seed, plus
/// any adversary output): at this limit, with the default two w vectors
/// and 400 samples per input, 51 200 Samples, under 10 MB.
inline constexpr std::size_t kGssMaxHonestParties = 6;

/// Runs every fixed input of the sweep as one exec::Runner batch, then
/// evaluates the gaps.  Throws UsageError above kGssMaxHonestParties.
[[nodiscard]] GssVerdict test_gstarstar(const exec::RunSpec& spec, const GssOptions& options,
                                        std::uint64_t seed);

}  // namespace simulcast::testers
