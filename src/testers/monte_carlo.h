// Helpers shared by all independence testers.
//
// Each tester estimates the literal quantity in its definition from N
// independent executions: fresh input draw, fresh protocol randomness,
// fresh adversary instance, all derived from (seed, repetition index) so a
// whole experiment replays exactly.  The executions themselves run on the
// exec::Runner engine (exec/runner.h), whose thread count only changes
// wall-clock time, never a single output bit.
#pragma once

#include <vector>

#include "exec/runner.h"

namespace simulcast::testers {

/// Fraction of samples with consistent honest outputs (should be ~1 for a
/// correct parallel-broadcast protocol under any adversary).  Throws
/// UsageError on an empty sample set: 0/0 is not "always inconsistent".
[[nodiscard]] double consistency_rate(const std::vector<exec::Sample>& samples);

/// Sorted honest coordinate list for a sample width and corruption set.
[[nodiscard]] std::vector<std::size_t> honest_indices(std::size_t n,
                                                      const std::vector<sim::PartyId>& corrupted);

}  // namespace simulcast::testers
