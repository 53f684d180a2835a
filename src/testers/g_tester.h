// G-independence tester (Definition 4.4, Gennaro).
//
// For every corrupted party P_i, every bit b, and every pair of honest
// announced vectors (r, s) with enough empirical mass, estimate
//     gap = | Pr[W_i = b | W_honest = r] - Pr[W_i = b | W_honest = s] |.
// The definition requires the gap to be negligible; the tester reports the
// maximum over all (i, b, r, s) with a per-conditioning Hoeffding radius
// (driven by the smaller of the two conditioning counts).
//
// Conditioning on rare vectors is exactly the technical wrinkle that led
// the paper to define G** (Appendix B); the min_conditioning_count floor
// mirrors that: pairs whose conditioning events were observed fewer times
// are skipped as statistically meaningless.
#pragma once

#include "testers/monte_carlo.h"

namespace simulcast::testers {

struct GFinding {
  std::size_t party = 0;  ///< corrupted party index i
  bool bit = false;
  BitVec r;               ///< honest vector of the first conditioning
  BitVec s;               ///< honest vector of the second conditioning
  double gap = 0.0;
  double radius = 0.0;    ///< Hoeffding radius for this pair
  std::size_t count_r = 0;
  std::size_t count_s = 0;
};

struct GVerdict {
  bool independent = true;
  double max_excess = 0.0;  ///< max over pairs of (gap - radius)
  GFinding worst;
  std::size_t samples = 0;
  std::size_t pairs_tested = 0;
};

struct GOptions {
  double alpha = 0.01;
  double margin = 0.02;                      ///< excess must clear this to flag
  std::size_t min_conditioning_count = 50;   ///< floor for usable conditionings
};

[[nodiscard]] GVerdict test_g(const std::vector<exec::Sample>& samples,
                              const std::vector<sim::PartyId>& corrupted,
                              const GOptions& options = {});

}  // namespace simulcast::testers
