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
// The tester enumerates all honest-input vectors (n - t small) for the two
// corrupted-input vectors w = 0...0 and w = 1...1, estimates each input's
// probabilities from samples_per_input fixed-input executions, and reports
// the worst pairwise gap per corrupted party.  The budget is union-bounded
// over |w| * |corrupted| * 4^|honest| estimates.
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

/// Largest honest-party count the sweep enumerates.  The sweep is one
/// batch, so all 2 x 2^honest x samples_per_input of its Samples are in
/// memory at once (about 170 bytes each with their input and seed, plus
/// any adversary output): at this limit, with 400 samples per input,
/// 51 200 Samples, under 10 MB.
inline constexpr std::size_t kGssMaxHonestParties = 6;

/// Runs every fixed input of the sweep, samples_per_input executions each,
/// as one exec::Runner batch, then evaluates the gaps.  Throws UsageError,
/// before sampling anything, when samples_per_input is 0 or the honest
/// parties exceed kGssMaxHonestParties.
[[nodiscard]] GssVerdict test_gstarstar(const exec::RunSpec& spec,
                                        std::size_t samples_per_input, std::uint64_t seed);

}  // namespace simulcast::testers
