// Helpers shared by all independence testers.
//
// Each tester estimates the literal quantity in its definition from N
// independent executions: fresh input draw, fresh protocol randomness,
// fresh adversary instance, all derived from (seed, repetition index) so a
// whole experiment replays exactly.  The executions themselves run on the
// exec::Runner engine (exec/runner.h), whose thread count only changes
// wall-clock time, never a single output bit.
//
// Every verdict follows one rule (DESIGN.md section 1): it flags a gap that
// clears its Hoeffding radius plus a margin, where the radii spend a
// budget of kAlpha union-bounded over every estimate the verdict tests
// (stats::Budget).  A tester states only how many estimates that is.
#pragma once

#include <vector>

#include "exec/runner.h"
#include "stats/confidence.h"

namespace simulcast::testers {

/// Each verdict's error probability: all its estimates lie within their
/// radii with probability at least 99%.
inline constexpr double kAlpha = 0.01;

/// How far a gap must clear its radius to be flagged.
inline constexpr double kMargin = 0.02;

/// Fraction of samples with consistent honest outputs (should be ~1 for a
/// correct parallel-broadcast protocol under any adversary).  Throws
/// UsageError on an empty sample set: 0/0 is not "always inconsistent".
[[nodiscard]] double consistency_rate(const std::vector<exec::Sample>& samples);

}  // namespace simulcast::testers
