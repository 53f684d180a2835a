// G-independence tester (Definition 4.4, Gennaro).
//
// For every corrupted party P_i, every bit b, and every pair of honest
// announced vectors (r, s) with enough empirical mass, estimate
//     gap = | Pr[W_i = b | W_honest = r] - Pr[W_i = b | W_honest = s] |.
// The definition requires the gap to be negligible; the tester reports the
// maximum over all (i, b, r, s) of the gap's excess over its own Hoeffding
// radius, which is driven by the two conditioning counts.  The budget is
// union-bounded over usable^2 * |corrupted| pairs, where usable counts the
// conditionings that pass the floor below.
//
// Conditioning on rare vectors is exactly the technical wrinkle that led
// the paper to define G** (Appendix B); the tester's conditioning floor
// mirrors that: honest vectors observed fewer than 50 times are skipped as
// statistically meaningless.
#pragma once

#include "testers/monte_carlo.h"

namespace simulcast::testers {

struct GFinding {
  std::size_t party = 0;  ///< corrupted party index i
  BitVec r;               ///< honest vector of the first conditioning
  BitVec s;               ///< honest vector of the second conditioning
  double gap = 0.0;
  double radius = 0.0;    ///< Hoeffding radius for this pair
};

struct GVerdict {
  bool independent = true;
  double max_excess = 0.0;  ///< max over pairs of (gap - radius)
  GFinding worst;
  std::size_t pairs_tested = 0;
};

[[nodiscard]] GVerdict test_g(const std::vector<exec::Sample>& samples,
                              const std::vector<sim::PartyId>& corrupted);

}  // namespace simulcast::testers
