// Shared main for the google-benchmark micro harnesses.
//
// Replaces BENCHMARK_MAIN() so the micro binaries speak the same observation
// protocol as the E-binaries: every measured run is captured into an
// obs::ExperimentRecord cell and the record flows through the common
// core::finish_experiment epilogue (verdict line + optional BENCH_*.json).
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.h"
#include "exec/runner.h"

namespace simulcast::bench {

/// Console reporter that also records each measurement as a record cell.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<obs::ExperimentCell> cells;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string detail =
          run.error_occurred
              ? "benchmark error: " + run.error_message
              : obs::fmt(run.GetAdjustedRealTime(), 1) + " " +
                    benchmark::GetTimeUnitString(run.time_unit) + "/iter over " +
                    std::to_string(run.iterations) + " iterations";
      cells.push_back({run.benchmark_name(), obs::check(!run.error_occurred, detail)});
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// The micro-harness main: strips the simulcast CLI knobs (--threads=,
/// --json=, --trace=; already consumed by exec::configure) out of argv
/// before google-benchmark sees them, runs the registered benchmarks, and
/// emits the record.  Exits 0 iff at least one benchmark ran without error.
inline int run_micro(int argc, char** argv, obs::ExperimentRecord rec) {
  // Strict parse of the shared knobs; google-benchmark's own flags pass
  // through to benchmark::Initialize below.
  exec::configure(argc, argv, {"--benchmark_"});
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && (arg.rfind("--threads=", 0) == 0 || arg.rfind("--json=", 0) == 0 ||
                  arg.rfind("--trace=", 0) == 0))
      continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  core::print_banner(rec);
  RecordingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bool all_ok = ran > 0;
  for (const obs::ExperimentCell& cell : reporter.cells)
    all_ok = all_ok && cell.verdict.pass;
  rec.cells = std::move(reporter.cells);
  rec.reproduced = all_ok;
  rec.detail = std::to_string(ran) + " benchmarks measured, " +
               std::to_string(rec.cells.size()) + " runs recorded";
  return core::finish_experiment(rec);
}

}  // namespace simulcast::bench
