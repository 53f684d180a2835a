// CR-independence tester (Definition 4.3, Chor-Rabin).
//
// For every honest party P_i and every predicate R in a fixed library of
// polynomial-time predicates over the other announced bits, estimate
//     gap(i, R) = | Pr[W_i = 0] * Pr[R(W_{-i})] - Pr[W_i = 0 and R(W_{-i})] |
// over the sampled executions.  The definition requires the gap to be
// negligible for all (i, R); the tester reports the maximum observed gap
// with a Hoeffding confidence radius, and flags a violation when the gap
// clears the radius with margin.
//
// The default predicate library contains the attacks the paper's proofs
// build: the parity predicate of Lemma 6.4 (which nails Π_G under A*), the
// per-coordinate predicates used in the proof of Lemma 6.2, pairwise
// equality, AND/OR and threshold predicates.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "testers/monte_carlo.h"

namespace simulcast::testers {

/// A polynomial-time predicate over W_{-i} (the announced vector minus
/// coordinate i, in increasing-coordinate order).
struct CrPredicate {
  std::string name;
  std::function<bool(const BitVec&)> eval;
};

/// Default predicate library for vectors of n-1 bits.
[[nodiscard]] std::vector<CrPredicate> default_cr_predicates(std::size_t reduced_bits);

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
  double radius = 0.0;      ///< Hoeffding radius at the configured confidence
  CrFinding worst;          ///< the (i, R) that realized max_gap
  std::size_t samples = 0;
};

struct CrOptions {
  double alpha = 0.01;          ///< confidence parameter for the radius
  double margin = 0.02;         ///< gap must exceed radius + margin to flag
  std::vector<CrPredicate> predicates;  ///< empty = default library
};

/// Tests the sample set; `corrupted` identifies which coordinates belong to
/// corrupted parties (honest ones are tested as P_i).
[[nodiscard]] CrVerdict test_cr(const std::vector<exec::Sample>& samples,
                                const std::vector<sim::PartyId>& corrupted,
                                const CrOptions& options = {});

}  // namespace simulcast::testers
