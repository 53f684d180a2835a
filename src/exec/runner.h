// The parallel deterministic experiment engine.
//
// Every quantity this repository measures is estimated from N independent
// protocol executions, and one execution is a pure function of
// (protocol, adversary, inputs, seed).  The Runner exploits exactly that
// purity: it shards the N repetitions across a fixed pool of threads while
// deriving each repetition's seed the same way the serial loops always did
// (`master.fork(label, rep)`), and writes each repetition's Sample into a
// pre-sized slot.  Output order and values are therefore bit-identical for
// every thread count, including the serial fallback at threads <= 1 — the
// schedule decides only *when* a slot is filled, never *what* goes in it.
//
// Seeding contract (documented in DESIGN.md section 6):
//   - ensemble batches draw all inputs up front from `master.fork("inputs")`
//     in repetition order, so the input stream is consumed exactly as the
//     historical serial loop consumed it;
//   - repetition r executes with seed `master.fork("exec", r)()` (ensemble
//     batches) or `master.fork("exec-fixed", r)()` (fixed-input batches);
//   - Rng::fork never advances the parent, so preforking all seeds first is
//     observationally identical to forking lazily inside the loop.
//
// There is no work stealing: workers pull repetition indices from a single
// atomic dispenser, which keeps the pool trivially exception-safe (a failed
// worker parks, the rest drain, join always completes) at the cost of one
// relaxed fetch_add per repetition — noise next to a protocol execution.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversaries.h"
#include "dist/ensembles.h"
#include "exec/config.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::exec {

/// Everything needed to run one (protocol, adversary, corruption) triple.
struct RunSpec {
  const sim::ParallelBroadcastProtocol* protocol = nullptr;
  sim::ProtocolParams params;
  std::vector<sim::PartyId> corrupted;
  adversary::AdversaryFactory adversary;
  Bytes auxiliary_input;
  bool private_channels = true;
  /// Fault plan applied to every execution of the batch (sim/faults.h).
  /// An empty plan falls back to the Runner's RunConfig::faults, so the
  /// --drop/--delay/--crash knobs reach every driver unchanged.
  sim::FaultPlan faults;
};

/// One execution's observables.
struct Sample {
  BitVec inputs;           ///< x as drawn (or fixed)
  BitVec announced;        ///< W (Definition 3.1); zeroed when inconsistent
  bool consistent = false; ///< honest outputs agreed
  Bytes adversary_output;
  std::size_t rounds = 0;      ///< rounds this execution ran
  sim::TrafficStats traffic;   ///< this execution's traffic

  bool operator==(const Sample&) const = default;
};

/// Reproducer for one quarantined repetition: everything needed to replay
/// the failure in isolation (`rep` + `seed` pin the execution exactly; the
/// reason says what the engine saw).  Follows the one-line reproducer
/// convention of tests/props/prop.h.
struct QuarantineRecord {
  std::size_t rep = 0;        ///< slot index within the batch
  std::uint64_t seed = 0;     ///< the execution seed handed to run_execution
  std::string reason;         ///< deterministic failure description
};

/// ---- graceful shutdown -------------------------------------------------
/// SIGINT/SIGTERM flip a cooperative stop flag; workers drain at the next
/// slot boundary, the engine flushes a checkpoint for every in-flight
/// batch, and core::finish_experiment emits a partial record.  A second
/// SIGINT restores the default disposition (an insistent ^C^C still kills).

/// True once a graceful stop was requested (signal, stop-after trigger, or
/// request_shutdown()).
[[nodiscard]] bool shutdown_requested();

/// Requests a graceful stop — exactly what the signal handler does.
void request_shutdown();

/// Clears the stop flag and the stop-after trigger, re-arming the process
/// for the next campaign (used by resume loops and tests).
void clear_shutdown();

/// Installs the SIGINT/SIGTERM handlers (idempotent).  configure() calls
/// this, so every driver exits cleanly on ^C with a flushed partial record
/// plus the checkpoint needed to resume.
void install_signal_handlers();

/// Arms a deterministic self-interrupt: request_shutdown() fires after
/// `completed` repetitions finish process-wide (0 disarms).  Drives the
/// --stop-after knob — the same cooperative stop path as a signal, at a
/// reproducible point, which is what the resume smoke and the interrupt
/// property tests exercise.
void set_stop_after(std::size_t completed);

/// Executions-per-second with the 0/0 guard: tiny batches on coarse clocks
/// can measure wall_seconds == 0.0, and inf/NaN would poison the JSON sink
/// (non-finite doubles serialize as null).  Shared by the engine and
/// BatchReport::operator+= so no throughput is ever computed unguarded.
[[nodiscard]] double safe_throughput(std::size_t executions, double wall_seconds);

/// Per-phase wall-clock breakdown of a batch: where the time actually went.
/// `sampling` and `execution` are stamped by the Runner into each batch's
/// report; `evaluation` stays 0 there and accrues only in the ledger, where
/// every tester call stamps the time it spent over its samples
/// (EvaluationTimer).
struct PhaseSeconds {
  double sampling = 0.0;    ///< drawing inputs from the ensemble (serial)
  double execution = 0.0;   ///< the sharded protocol-execution region
  double evaluation = 0.0;  ///< tester evaluation over the collected samples
};

/// Per-batch accounting: aggregated traffic plus wall-clock/throughput
/// counters for the whole batch (the substrate every scaling experiment
/// reports against).
struct BatchReport {
  std::size_t executions = 0;
  std::size_t threads = 1;       ///< workers that actually ran (pool clamped to batch size)
  double wall_seconds = 0.0;     ///< wall-clock time of the sharded region
  double throughput = 0.0;       ///< executions per second
  std::size_t total_rounds = 0;  ///< sum of per-execution round counts
  sim::TrafficStats traffic;     ///< sums over all executions
  PhaseSeconds phases;           ///< per-phase wall-clock breakdown
  // Campaign-resilience accounting (schema v4).  For a legacy batch:
  // completed == executions, quarantine empty, partial false.
  std::size_t completed = 0;     ///< slots that finished (run, or restored on resume)
  bool partial = false;          ///< a graceful stop left pending slots behind
  std::vector<QuarantineRecord> quarantine;  ///< reproducers for failed reps
  /// Campaign correlation id: the checkpoint identity digest of this batch
  /// (exec/checkpoint.h), stable across thread counts, interrupt/resume and
  /// processes.  The same id rides trace spans, log events, status
  /// heartbeats and record metadata (obs/log.h).
  std::uint64_t campaign = 0;

  /// Adds `other` into this report: counts, clocks, phases and traffic sum,
  /// `threads` keeps the widest pool, `partial` ORs, the quarantine lists
  /// concatenate, throughput is recomputed from the sums, and `campaign`
  /// keeps the first nonzero id.
  BatchReport& operator+=(const BatchReport& other);
};

struct BatchResult {
  std::vector<Sample> samples;
  BatchReport report;
};

/// Scoped phase timer: adds the elapsed wall-clock seconds of its lifetime
/// into `slot` on destruction (slots are the PhaseSeconds fields).  A
/// non-null `trace_name` additionally records the lifetime as a trace span
/// when tracing is on (obs/trace.h).
class ScopedPhase {
 public:
  explicit ScopedPhase(double& slot, const char* trace_name = nullptr)
      : slot_(slot), span_(trace_name), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
    slot_ += elapsed.count();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  double& slot_;
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// ---- the process ledger ------------------------------------------------
/// The one place executions are accounted.  Every batch a Runner runs adds
/// its report and its campaign id here, every tester call adds the time it
/// spent evaluating samples, and core::finish_experiment reads a record's
/// `perf` and `metadata.campaigns` from it.  Batches run one after another,
/// so the ids land in launch order at every thread count.  A batch that
/// repeats an earlier one (same spec, inputs and seeds) has its id and is
/// listed once.

/// Upper bound on the campaign ids the ledger keeps for record metadata.
/// Only the first kCampaignListCap distinct ids (in launch order) make it
/// into metadata.campaigns, so the correlation list cannot dwarf the record.
inline constexpr std::size_t kCampaignListCap = 32;

struct Ledger {
  BatchReport report;                    ///< the sum of every batch and evaluation
  std::vector<std::uint64_t> campaigns;  ///< distinct nonzero ids, launch order, capped
};

/// Adds one report to the ledger (the Runner calls it once per batch).
void ledger_add(const BatchReport& report);

/// A copy of the ledger as it stands.
[[nodiscard]] Ledger ledger();

/// Empties the ledger (tests; a product process starts with an empty one).
void clear_ledger();

/// Scoped tester timer: a ScopedPhase named "evaluation" whose seconds go
/// to the ledger's evaluation phase.
class EvaluationTimer {
 private:
  /// Destroyed after `phase_` has added its seconds: hands them to the ledger.
  struct Sink {
    double seconds = 0.0;
    ~Sink();
  };
  Sink sink_;
  ScopedPhase phase_{sink_.seconds, "evaluation"};
};

/// Runs body(i) for every i in [0, count) on up to `threads` workers and
/// returns once all indices completed.  If any body throws, remaining
/// indices are abandoned, all workers join, and the first captured
/// exception (by worker index) is rethrown — the pool cannot deadlock on a
/// throwing body.  threads <= 1 runs inline with zero thread overhead.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// The engine.  A Runner is a configuration object (a RunConfig), cheap to
/// construct; threads are spawned per batch so idle Runners hold nothing.
/// Every batch it runs, complete or drained, lands in the process ledger.
class Runner {
 public:
  /// Runs batches under `config` — by default the installed run_config() —
  /// with `threads` workers (0 = config.threads).  set_options() overrides
  /// the resilience knobs for this Runner (tests, embedders).
  explicit Runner(std::size_t threads = 0, RunConfig config = run_config());

  [[nodiscard]] std::size_t threads() const noexcept { return config_.threads; }

  [[nodiscard]] const BatchOptions& options() const noexcept { return config_.batch; }
  Runner& set_options(BatchOptions options) {
    config_.batch = std::move(options);
    return *this;
  }

  /// Runs `count` executions with inputs drawn from `ensemble` (drawn
  /// serially up front, in repetition order, from master.fork("inputs")).
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                                      std::size_t count, std::uint64_t seed) const;

  /// Runs `count` executions with the same fixed input vector.
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const BitVec& input,
                                      std::size_t count, std::uint64_t seed) const;

  /// Fully prepared batch: caller supplies one input vector and one seed
  /// per repetition (how Session sweeps and ValueBroadcast's per-bit
  /// sessions ride the engine without changing their seed derivations).
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const std::vector<BitVec>& inputs,
                                      const std::vector<std::uint64_t>& seeds) const;

 private:
  /// Usage errors caught before any sampling, so they never surface as a
  /// failure of every repetition (nor get quarantined as one): a null
  /// protocol, an effective fault plan (the spec's, else the config's)
  /// naming a party the execution does not have, or a chaos spec whose
  /// party:ID names no party (it would disturb nothing while the record
  /// claimed it had).
  void validate(const RunSpec& spec) const;

  RunConfig config_;
};

}  // namespace simulcast::exec
