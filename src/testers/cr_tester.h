// CR-independence tester (Definition 4.3, Chor-Rabin).
//
// For every honest party P_i and every predicate R in a fixed library of
// polynomial-time predicates over the other announced bits, estimate
//     gap(i, R) = | Pr[W_i = 0] * Pr[R(W_{-i})] - Pr[W_i = 0 and R(W_{-i})] |
// over the sampled executions.  The definition requires the gap to be
// negligible for all (i, R); the tester reports the maximum observed gap
// with a Hoeffding confidence radius, and flags a violation when the gap
// clears the radius with margin.  Each gap combines three estimated
// probabilities, so the radius is three Hoeffding radii and the budget is
// union-bounded over 3 * |honest| * |predicates| estimates.
//
// The predicate library contains the attacks the paper's proofs build: the
// parity predicate of Lemma 6.4 (which nails Π_G under A*), the
// per-coordinate predicates used in the proof of Lemma 6.2, pairwise
// equality and AND, majority and all-zero.
#pragma once

#include <string>
#include <vector>

#include "testers/monte_carlo.h"

namespace simulcast::testers {

struct CrFinding {
  std::size_t party = 0;    ///< honest party index i
  std::string predicate;
  double gap = 0.0;
  double p_wi_zero = 0.0;
  double p_predicate = 0.0;
  double p_joint = 0.0;
};

struct CrVerdict {
  bool independent = true;
  double max_gap = 0.0;
  double radius = 0.0;      ///< three Hoeffding radii at the verdict's budget
  CrFinding worst;          ///< the (i, R) that realized max_gap
};

/// Tests the sample set; `corrupted` identifies which coordinates belong to
/// corrupted parties (honest ones are tested as P_i).
[[nodiscard]] CrVerdict test_cr(const std::vector<exec::Sample>& samples,
                                const std::vector<sim::PartyId>& corrupted);

}  // namespace simulcast::testers
