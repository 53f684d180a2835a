// Typed, machine-readable result records (schema: kSchemaVersion below).
//
// Every quantity a bench driver prints — the CR/G/G**/Sb verdicts, the
// per-cell gaps and radii, the engine's BatchReport — is first captured in
// one of these structs; the printed tables (core::describe overloads) and
// the emitted BENCH_<id>.json (obs/sink.h) are both rendered from the same
// record, so the human-readable and machine-readable views can never
// drift.  The schema is versioned: consumers check "schema_version" before
// trusting field layout, and any field change bumps kSchemaVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::obs {

/// Bump on any change to the record field layout below.
/// v2: added the "metrics" object (counters + fixed-bucket histograms from
/// the process-wide obs::Metrics registry).
/// v3: fault injection — "traffic" gained the dropped/delayed/blocked/
/// crashed counters (zero for fault-free runs) and the record gained a
/// top-level "faults" object describing the plan in force.
/// v4: campaign resilience — the record gained a top-level "partial" flag
/// (a graceful stop flushed it before every repetition finished) and "perf"
/// gained completed/partial plus the "quarantine" reproducer array (rep,
/// seed, reason per quarantined repetition).
/// v5: the transport seam — "traffic" gained wire_bytes /
/// wire_delivered_bytes (true serialized sizes under the net/wire.h frame
/// encoding; payload_bytes / delivered_bytes stay for this revision as the
/// deprecated payload-only counts) and metadata gained "transport", the
/// backend (inproc|socket) the record was measured under.
/// v6: the deprecated payload-only counts are gone — "traffic" carries only
/// the wire-priced bytes (wire_bytes / wire_delivered_bytes).  Consumers
/// (bench/compare.sh) now reject records whose schema_version they do not
/// know instead of silently diffing mismatched layouts.
/// v7: live telemetry — every histogram in "metrics" gained p50/p95/p99
/// percentile summaries (null for an empty histogram), and metadata gained
/// "campaigns": the correlation ids (checkpoint identity digests, 16-hex)
/// of every batch that fed the record, in batch order, joining the record
/// to its trace spans, log events and status heartbeats.
/// v8: wire chaos — metadata gained "chaos", the canonical net/chaos.h
/// spec summary the record was measured under ("" for clean runs).
/// Recoverable chaos leaves verdicts bit-identical, so the field states
/// conditions without entering any checkpoint identity.
/// v9: log-linear histograms — each histogram in "metrics" is count, sum,
/// p50/p95/p99 and "buckets": [[first, last, count], ...] over its
/// non-empty buckets (obs::Histogram's one layout); the lo/hi range and
/// the underflow/overflow tails are gone, and every percentile is the
/// midpoint of the bucket holding its rank.
/// v10: self-checking records — each cell gained "expected", the outcome
/// the paper predicts of it ("pass", "violation", or "info" for a row that
/// decides nothing), and "reproduced" follows from the cells by one rule
/// (core::reproduced): the record is not partial and every cell that is
/// not "info" met its expectation.
inline constexpr std::uint64_t kSchemaVersion = 10;

/// Fixed-precision decimal formatting shared by tables and detail strings
/// (core::fmt delegates here so text and records agree digit for digit).
[[nodiscard]] std::string fmt(double value, int precision = 4);

/// One tester verdict, normalized across the four independence notions.
/// `kind` is "CR", "G", "G**", "Sb" — or "check" for plain boolean rows
/// (shape checks, arrow compositions) that carry no statistic.
struct VerdictRecord {
  std::string kind;
  bool pass = false;
  double gap = 0.0;     ///< headline statistic (max gap / excess / advantage)
  double radius = 0.0;  ///< confidence radius where the tester reports one
  std::string detail;   ///< worst-case witness text, as printed
};

/// Conversions from the testers' verdicts.  The detail string is exactly
/// the text core::describe prints after the "<kind> <status>: " prefix.
[[nodiscard]] VerdictRecord record(const testers::CrVerdict& v);
[[nodiscard]] VerdictRecord record(const testers::GVerdict& v);
[[nodiscard]] VerdictRecord record(const testers::GssVerdict& v);
[[nodiscard]] VerdictRecord record(const testers::SbVerdict& v);
/// A boolean check row with no statistic attached.
[[nodiscard]] VerdictRecord check(bool pass, std::string detail);

/// The outcome the paper predicts of one cell: the tester passes, the
/// tester flags a violation, or nothing (`info`: a sweep row or an
/// exploration observation, recorded but deciding nothing).
enum class Expect { pass, violation, info };

/// One row of an experiment: a labelled verdict (protocol x ensemble cell,
/// sweep row, arrow of Figure 1, ...) and what the paper expects of it.
struct ExperimentCell {
  std::string label;
  VerdictRecord verdict;
  Expect expected = Expect::pass;
};

/// Everything one bench driver produces: identity, paper claim, setup,
/// per-cell verdicts, the overall reproduced flag, and run metadata
/// (seed / threads / build) so a BENCH_<id>.json is self-describing.
/// Drivers fill it through core::Experiment: its constructor sets the
/// identity and seed, cell() the cells, and finish() everything else.
struct ExperimentRecord {
  std::string id;           ///< e.g. "E2/cr-impossibility"
  std::string paper_claim;
  std::string setup;
  std::vector<ExperimentCell> cells;
  bool reproduced = false;  ///< core::reproduced of this record
  std::string detail;       ///< the verdict line's text after the verdict
  std::uint64_t seed = 0;   ///< master seed compiled into the driver
  /// Engine accounting of every batch and tester call the process ran
  /// (wall clock, throughput, traffic, per-phase breakdown): the exec
  /// ledger's report (exec/runner.h).
  exec::BatchReport perf;
  MetricsSnapshot metrics;  ///< obs::Metrics::global() (schema v2)
  sim::FaultPlan faults;    ///< the fault plan in force (schema v3)
  /// Schema v4: true when a graceful stop flushed the record before every
  /// repetition finished — its verdicts rest on drained slots, so such a
  /// record never reproduces.
  bool partial = false;
  std::string transport;  ///< backend measured under, "inproc" | "socket" | "process" (v5)
  std::string chaos;      ///< net/chaos.h spec summary, "" = clean wire (v8)
  /// Campaign correlation ids (schema v7): the distinct 16-hex identity
  /// digests of the batches that fed this record, in launch order, capped
  /// at exec::kCampaignListCap.
  std::vector<std::string> campaigns;
};

/// Serializers.  append() writes the record as the next JSON value (the
/// caller positions the writer); to_json renders a whole document.
void append(Json& json, const VerdictRecord& v);
void append(Json& json, const exec::BatchReport& r);
void append(Json& json, const MetricsSnapshot& m);
void append(Json& json, const ExperimentRecord& r);
[[nodiscard]] std::string to_json(const ExperimentRecord& r);

}  // namespace simulcast::obs
