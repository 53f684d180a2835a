// Plain-text reporting for the experiment harnesses.
//
// Every bench binary prints (a) the paper's claim, (b) the measured
// evidence, (c) a REPRODUCED/NOT-REPRODUCED verdict line that
// EXPERIMENTS.md quotes; core::Experiment prints (a) and (c) and keeps the
// record.  The Table class right-pads cells and draws the separators so
// all benches look alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/runner.h"
#include "obs/records.h"
#include "obs/sink.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::core {

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Renders with a header separator; every column is as wide as its
  /// widest cell.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Short formatters used by every experiment binary.
[[nodiscard]] std::string fmt(double value, int precision = 4);
[[nodiscard]] std::string verdict_str(bool pass);

/// Renders a normalized verdict record ("<kind> <status>: <detail>").
/// The tester-verdict describe() overloads below are thin wrappers over
/// obs::record + this function, so the printed text and the emitted JSON
/// are rendered from the same struct and can never drift.
[[nodiscard]] std::string describe(const obs::VerdictRecord& v);
[[nodiscard]] std::string describe(const testers::CrVerdict& v);
[[nodiscard]] std::string describe(const testers::GVerdict& v);
[[nodiscard]] std::string describe(const testers::GssVerdict& v);
[[nodiscard]] std::string describe(const testers::SbVerdict& v);

/// Engine accounting line: executions, pool width, wall clock, throughput,
/// aggregate traffic and per-phase breakdown of a batch (what the "[exec]"
/// bench lines print).
[[nodiscard]] std::string describe(const exec::BatchReport& r);

/// Metrics registry lines ("[metrics] ..."): one line for the counters,
/// one per histogram (count / mean / percentiles).  Rendered from the same
/// snapshot the JSON serializes, like every other describe().
[[nodiscard]] std::string describe(const obs::MetricsSnapshot& m);

/// The one rule behind a record's "reproduced": the record is not partial
/// and every cell met the outcome the paper expects of it — a `pass` cell
/// passed and a `violation` cell was flagged; `info` cells never decide it.
[[nodiscard]] bool reproduced(const obs::ExperimentRecord& record);

/// One experiment run, from banner to exit code.  The constructor prints
/// the banner (id, paper claim, setup); cell() records each verdict with
/// the outcome the paper expects of it; finish() completes the record
/// (perf and campaigns from the exec ledger — every batch and tester call
/// of the process — metrics from obs::Metrics::global(), faults,
/// transport and chaos from exec::run_config(), partial from the ledger
/// and the process stop flag), sets "reproduced" by the rule above,
/// prints the [exec] and [metrics] lines and the verdict line, emits
/// BENCH_<id>.json and TRACE_<id>.json when those sinks are configured
/// (--json= / --trace=), and returns the exit code: 0 iff reproduced.
class Experiment {
 public:
  Experiment(std::string id, std::string paper_claim, std::string setup,
             std::uint64_t seed = 0);

  void cell(std::string label, obs::VerdictRecord verdict, obs::Expect expected);

  /// The verdict line reads "k/k cells as the paper expects" and then
  /// `summary` when the run reproduced, how many executions ran when it
  /// is partial, or the labels of the cells that missed.
  int finish(const std::string& summary);

 private:
  obs::ExperimentRecord record_;
};

}  // namespace simulcast::core
