// Monte-Carlo execution harness shared by all independence testers.
//
// Each tester estimates the literal quantity in its definition from N
// independent executions: fresh input draw, fresh protocol randomness,
// fresh adversary instance, all derived from (seed, repetition index) so a
// whole experiment replays exactly.
//
// Since the exec::Runner engine landed, this header is a thin facade: the
// repetition loop, the seed derivation and the parallel sharding live in
// exec/runner.h, and `threads` (0 = exec::run_config().threads) only changes
// wall-clock time, never a single output bit.
#pragma once

#include <vector>

#include "exec/runner.h"

namespace simulcast::testers {

/// Everything needed to run one (protocol, adversary, corruption) triple.
using RunSpec = exec::RunSpec;

/// One execution's observables.
using Sample = exec::Sample;

/// Runs `count` executions with inputs drawn from `ensemble`.
[[nodiscard]] std::vector<Sample> collect_samples(const RunSpec& spec,
                                                  const dist::InputEnsemble& ensemble,
                                                  std::size_t count, std::uint64_t seed,
                                                  std::size_t threads = 0);

/// Runs `count` executions with the given fixed input vector (the quantity
/// Announced^Π_A(x) of Definition 3.1; used by the G** tester).
[[nodiscard]] std::vector<Sample> collect_samples_fixed(const RunSpec& spec, const BitVec& input,
                                                        std::size_t count, std::uint64_t seed,
                                                        std::size_t threads = 0);

/// collect_samples, but also returning the engine's per-batch accounting
/// (wall clock, throughput, aggregated traffic).
[[nodiscard]] exec::BatchResult collect_batch(const RunSpec& spec,
                                              const dist::InputEnsemble& ensemble,
                                              std::size_t count, std::uint64_t seed,
                                              std::size_t threads = 0);

/// collect_samples_fixed with the batch report.
[[nodiscard]] exec::BatchResult collect_batch_fixed(const RunSpec& spec, const BitVec& input,
                                                    std::size_t count, std::uint64_t seed,
                                                    std::size_t threads = 0);

/// Fraction of samples with consistent honest outputs (should be ~1 for a
/// correct parallel-broadcast protocol under any adversary).  Throws
/// UsageError on an empty sample set: 0/0 is not "always inconsistent".
[[nodiscard]] double consistency_rate(const std::vector<Sample>& samples);

/// Sorted honest coordinate list for a sample width and corruption set.
[[nodiscard]] std::vector<std::size_t> honest_indices(std::size_t n,
                                                      const std::vector<sim::PartyId>& corrupted);

}  // namespace simulcast::testers
