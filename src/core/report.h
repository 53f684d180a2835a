// Plain-text reporting helpers for the experiment harnesses.
//
// Every bench binary prints (a) the paper's claim, (b) the measured
// evidence, (c) a PASS/FAIL verdict line that EXPERIMENTS.md quotes.  The
// Table class right-pads cells and draws the separators so all benches
// look alike.
#pragma once

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
[[nodiscard]] std::string describe(const obs::PerfRecord& r);

/// Metrics registry lines ("[metrics] ..."): one line for the counters,
/// one per histogram (count / mean / tails).  Rendered from the same
/// snapshot the JSON serializes, like every other describe().
[[nodiscard]] std::string describe(const obs::MetricsSnapshot& m);

/// Experiment banner: id, paper claim, and what is being run.
void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const std::string& setup);

/// Banner from a record's identity fields (id / paper_claim / setup).
void print_banner(const obs::ExperimentRecord& record);

/// The one-line machine-greppable verdict every harness ends with.
void print_verdict_line(const std::string& experiment_id, bool reproduced,
                        const std::string& detail);

/// The uniform bench epilogue: sets record.perf and record.campaigns from
/// the exec ledger (every batch and tester call of the process; whatever the
/// driver put there is replaced) and fills record.metrics from
/// obs::Metrics::global() when the driver left it empty; prints the [exec] accounting line (when any batch ran), the
/// [metrics] registry lines and the verdict line; emits BENCH_<id>.json
/// when a JSON sink is configured
/// (--json= / SIMULCAST_JSON) and TRACE_<id>.json when a trace sink is
/// (--trace= / SIMULCAST_TRACE); returns the driver's exit code (0 iff
/// reproduced).
int finish_experiment(const obs::ExperimentRecord& record);

}  // namespace simulcast::core
