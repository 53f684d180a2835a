#include "exec/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "base/error.h"
#include "broadcast/parallel_broadcast.h"
#include "exec/checkpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace simulcast::exec {

namespace {

// Graceful-shutdown state.  The stop flag is an atomic<bool> (lock-free on
// every target we build for) so the signal handler's store is
// async-signal-safe; everything else is ordinary cross-thread state touched
// only outside handlers.
std::atomic<bool> g_shutdown{false};
std::atomic<std::size_t> g_stop_after{0};
std::atomic<std::size_t> g_stop_after_completed{0};

// The process ledger (runner.h).  One mutex-guarded sum per batch and per
// tester call: nothing on the per-execution path touches it.
std::mutex g_ledger_mutex;
Ledger g_ledger;

void shutdown_signal_handler(int sig) {
  g_shutdown.store(true, std::memory_order_relaxed);
  // Restore the default disposition so an insistent second ^C kills the
  // process the old-fashioned way instead of being swallowed.
  std::signal(sig, SIG_DFL);
}

/// Feeds the --stop-after trigger: called once per actually-executed
/// repetition, process-wide.  Disarmed (the common case) it is one relaxed
/// load.
void note_completed_repetition() {
  const std::size_t target = g_stop_after.load(std::memory_order_relaxed);
  if (target == 0) return;
  if (g_stop_after_completed.fetch_add(1, std::memory_order_relaxed) + 1 >= target) {
    request_shutdown();
  }
}

Sample run_one(const RunSpec& spec, const RunConfig& run, const BitVec& input,
               std::uint64_t exec_seed, std::chrono::steady_clock::time_point deadline = {}) {
  sim::ExecutionConfig config;
  config.seed = exec_seed;
  config.corrupted = spec.corrupted;
  config.auxiliary_input = spec.auxiliary_input;
  config.private_channels = spec.private_channels;
  config.faults = run.faults;
  config.deadline = deadline;
  config.transport = run.transport;
  config.chaos = run.chaos;
  config.net_timeout = run.net_timeout;

  const std::unique_ptr<sim::Adversary> adv = spec.adversary();
  const sim::ExecutionResult result =
      sim::run_execution(*spec.protocol, spec.params, input, *adv, config);
  const broadcast::Announced announced = broadcast::extract_announced(result, spec.corrupted);

  Sample s;
  s.inputs = input;
  s.announced = announced.consistent ? announced.w : BitVec(spec.params.n);
  s.consistent = announced.consistent;
  s.adversary_output = result.adversary_output;
  s.rounds = result.rounds;
  s.traffic = result.traffic;
  return s;
}

/// The engine's registry feeds.  Registered once (function-local statics),
/// recorded per repetition from whatever worker ran it — the histograms
/// ISSUE'd as rounds-per-execution and repetition latency, plus the
/// execution counters.
void record_repetition_metrics(const Sample& s, std::uint64_t elapsed_us) {
  static obs::Counter& executions = obs::Metrics::global().counter("exec.executions");
  static obs::Counter& inconsistent = obs::Metrics::global().counter("exec.inconsistent");
  static obs::Histogram& rounds = obs::Metrics::global().histogram("exec.rounds_per_execution");
  static obs::Histogram& latency = obs::Metrics::global().histogram("exec.repetition_us");
  executions.add(1);
  if (!s.consistent) inconsistent.add(1);
  rounds.record(s.rounds);
  latency.record(elapsed_us);
}

/// The batch's identity tuple (exec/checkpoint.h): what a resume verifies
/// before trusting a sidecar file.  The stream hash covers every
/// (input, seed) pair in slot order, so two batches agree only when every
/// repetition is the same pure function application.
CampaignIdentity compute_identity(const RunSpec& spec, const sim::FaultPlan& plan,
                                  const std::function<const BitVec&(std::size_t)>& input_for,
                                  const std::vector<std::uint64_t>& seeds) {
  CampaignIdentity identity;
  identity.protocol = spec.protocol->name();
  identity.n = spec.params.n;
  identity.count = seeds.size();

  IdentityHash config_hash;
  config_hash.mix(static_cast<std::uint64_t>(spec.params.k));
  config_hash.mix(static_cast<std::uint64_t>(spec.corrupted.size()));
  for (const sim::PartyId id : spec.corrupted) config_hash.mix(static_cast<std::uint64_t>(id));
  config_hash.mix(spec.auxiliary_input);
  config_hash.mix(static_cast<std::uint64_t>(spec.private_channels ? 1 : 0));
  // A null scheme mixes nothing, so batches without one keep their ids.
  if (spec.params.commitments != nullptr) config_hash.mix(spec.params.commitments->name());
  // Each adversary factory returns its own closure type, so two batches
  // that differ only in their adversary never share a checkpoint.
  config_hash.mix(std::string_view(spec.adversary.target_type().name()));
  identity.config_hash = config_hash.value();

  IdentityHash fault_hash;
  fault_hash.mix(plan.drop_probability);
  fault_hash.mix(static_cast<std::uint64_t>(plan.max_delay));
  fault_hash.mix(static_cast<std::uint64_t>(plan.crashes.size()));
  for (const sim::CrashFault& crash : plan.crashes) {
    fault_hash.mix(static_cast<std::uint64_t>(crash.party));
    fault_hash.mix(static_cast<std::uint64_t>(crash.round));
  }
  fault_hash.mix(static_cast<std::uint64_t>(plan.partitions.size()));
  for (const sim::Partition& partition : plan.partitions) {
    fault_hash.mix(static_cast<std::uint64_t>(partition.side.size()));
    for (const sim::PartyId id : partition.side) fault_hash.mix(static_cast<std::uint64_t>(id));
    fault_hash.mix(static_cast<std::uint64_t>(partition.from));
    fault_hash.mix(static_cast<std::uint64_t>(partition.until));
  }
  identity.fault_hash = fault_hash.value();

  IdentityHash stream_hash;
  for (std::size_t rep = 0; rep < seeds.size(); ++rep) {
    stream_hash.mix(input_for(rep));
    stream_hash.mix(seeds[rep]);
  }
  identity.stream_hash = stream_hash.value();
  return identity;
}

/// One resilient repetition: watchdog deadline per attempt, bounded retry
/// with exponential backoff for transient errors, everything else (and
/// retry exhaustion) reported as a quarantine reason.  Returns true and
/// fills `sample` on success.  `rep` and `retry_count` feed telemetry only
/// (log events, heartbeat retry totals).
bool attempt_repetition(const RunSpec& spec, const RunConfig& run, const BitVec& input,
                        std::uint64_t exec_seed, std::size_t rep,
                        std::atomic<std::size_t>& retry_count, Sample& sample,
                        std::string& reason) {
  const BatchOptions& options = run.batch;
  const int max_attempts = options.retries < 0 ? 1 : options.retries + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Each attempt gets a fresh wall-clock budget: a retry that inherited an
    // already-burned deadline could never succeed.
    std::chrono::steady_clock::time_point deadline{};
    if (options.rep_timeout > 0.0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(options.rep_timeout));
    }
    try {
      sample = run_one(spec, run, input, exec_seed, deadline);
      return true;
    } catch (const TimeoutError& e) {
      // A stuck repetition is deterministic under the purity contract:
      // retrying it would stick again.  Quarantine immediately.
      reason = std::string("timeout: ") + e.what();
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kWarn, "rep-watchdog", {{"rep", rep}, {"seed", exec_seed}},
                       reason);
      return false;
    } catch (const std::bad_alloc&) {
      reason = "transient: std::bad_alloc";
    } catch (const std::ios_base::failure& e) {
      reason = std::string("transient: I/O failure: ") + e.what();
    } catch (const std::system_error& e) {
      reason = std::string("transient: system error: ") + e.what();
    } catch (const std::exception& e) {
      reason = std::string("deterministic: ") + e.what();
      return false;
    }
    if (attempt + 1 < max_attempts) {
      retry_count.fetch_add(1, std::memory_order_relaxed);
      obs::Metrics::global().counter("exec.retries").add(1);
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kInfo, "rep-retry",
                       {{"rep", rep}, {"attempt", static_cast<std::uint64_t>(attempt + 1)}},
                       reason);
      // 1ms, 2ms, 4ms, ... capped at 64ms: enough to let a transient
      // resource squeeze clear without stalling the whole worker pool.
      std::this_thread::sleep_for(std::chrono::milliseconds(1LL << std::min(attempt, 6)));
    }
  }
  reason = "transient failure persisted after " + std::to_string(max_attempts) +
           " attempts; last: " + reason;
  return false;
}

/// Shards the prepared repetitions, fills the slots, and accounts the batch
/// (its report, `sampling_seconds` included, lands in the ledger).
/// With default BatchOptions this is the legacy engine bit for bit; the
/// resilience features (checkpoint/resume, watchdog, retry/quarantine,
/// graceful-stop drain) each activate only when their knob is set — except
/// the stop flag, which always drains so ^C works for every driver.
BatchResult run_prepared(const RunSpec& spec, const RunConfig& run,
                         const std::function<const BitVec&(std::size_t)>& input_for,
                         const std::vector<std::uint64_t>& seeds, double sampling_seconds) {
  const BatchOptions& options = run.batch;
  const std::size_t threads = run.threads;
  const std::size_t count = seeds.size();
  BatchResult out;
  out.samples.resize(count);
  out.report.executions = count;
  out.report.phases.sampling = sampling_seconds;
  // parallel_for clamps the pool to the batch size; report the worker count
  // that actually ran, not the requested width (a 4-rep batch at
  // --threads=16 runs 4-wide).
  const std::size_t requested = threads < 1 ? 1 : threads;
  out.report.threads = count == 0 ? 1 : std::min(requested, count);

  // Per-slot lifecycle, shared between workers and the checkpoint flusher.
  // The release store after a slot's sample is written / acquire load before
  // it is read is what publishes the Sample across threads (TSan-checked by
  // the robustness suites).
  constexpr char kPending = 0, kDone = 1, kQuarantined = 2;
  std::vector<std::atomic<char>> status(count);

  std::mutex quarantine_mutex;
  std::vector<QuarantineRecord> quarantined;

  const bool checkpointing = !options.checkpoint_path.empty();
  if (options.resume && !checkpointing) {
    throw UsageError("exec::Runner: --resume requires a --checkpoint path");
  }

  // The identity digest doubles as the batch's campaign correlation id
  // (obs/log.h), so it is computed for every batch now, not only for
  // checkpointed ones — the hash is O(count) and vanishes next to running
  // the repetitions.
  const CampaignIdentity identity = compute_identity(spec, run.faults, input_for, seeds);
  const std::uint64_t campaign = identity.digest();
  out.report.campaign = campaign;
  obs::set_current_campaign(campaign);

  // Live progress published for the status reporter (and the heartbeat's
  // retry totals).  Relaxed is enough: heartbeats are approximate, the
  // authoritative accounting below reads the slot states.
  std::atomic<std::size_t> completed_count{0};
  std::atomic<std::size_t> quarantined_count{0};
  std::atomic<std::size_t> retried_count{0};
  std::atomic<std::uint64_t> last_exec_id{0};
  std::size_t restored = 0;

  std::string checkpoint_file;
  double prior_elapsed = 0.0;
  if (checkpointing) {
    checkpoint_file = resolve_checkpoint_path(options.checkpoint_path, identity);
    if (options.resume) {
      if (std::optional<CheckpointData> loaded = load_checkpoint(checkpoint_file)) {
        if (loaded->identity != identity) {
          throw UsageError(
              "exec::Runner: checkpoint identity mismatch — refusing to resume\n"
              "  checkpoint: " +
              loaded->identity.describe() + "\n  this batch: " + identity.describe());
        }
        prior_elapsed = loaded->elapsed_seconds;
        for (SlotRecord& record : loaded->slots) {
          out.samples[record.slot] = std::move(record.sample);
          status[record.slot].store(kDone, std::memory_order_relaxed);
          ++restored;
        }
        for (QuarantineRecord& record : loaded->quarantined) {
          status[record.rep].store(kQuarantined, std::memory_order_relaxed);
          quarantined.push_back(std::move(record));
        }
        completed_count.store(restored, std::memory_order_relaxed);
        quarantined_count.store(quarantined.size(), std::memory_order_relaxed);
        obs::Metrics::global().counter("exec.restored_slots").add(restored);
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kInfo, "checkpoint-resume",
                         {{"restored", restored}, {"quarantined", quarantined.size()}},
                         checkpoint_file);
      }
      // No file: a fresh campaign run with --resume already on its command
      // line — the normal way to launch "run until done, however many
      // interruptions it takes" loops.
    }
  }

  std::mutex flush_mutex;
  std::atomic<std::size_t> finished_this_run{0};
  const auto exec_start = std::chrono::steady_clock::now();
  const auto flush_checkpoint = [&] {
    const std::lock_guard<std::mutex> lock(flush_mutex);
    CheckpointData data;
    data.identity = identity;
    const std::chrono::duration<double> so_far = std::chrono::steady_clock::now() - exec_start;
    data.elapsed_seconds = prior_elapsed + so_far.count();
    for (std::size_t rep = 0; rep < count; ++rep) {
      if (status[rep].load(std::memory_order_acquire) == kDone) {
        data.slots.push_back({rep, out.samples[rep]});
      }
    }
    {
      const std::lock_guard<std::mutex> qlock(quarantine_mutex);
      data.quarantined = quarantined;
    }
    write_checkpoint(checkpoint_file, data);
    if (obs::log_enabled())
      obs::log_event(obs::LogLevel::kDebug, "checkpoint-flush",
                     {{"slots", data.slots.size()}, {"quarantined", data.quarantined.size()}},
                     checkpoint_file);
  };

  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kInfo, "batch-begin",
                   {{"reps", count}, {"threads", out.report.threads}, {"restored", restored}});
  // One heartbeat reporter per batch when a status sink is configured.  It
  // only reads the atomics above and the metrics registry; destroyed (with
  // a final beat) before the batch report is sealed.
  std::optional<obs::StatusReporter> reporter;
  if (!run.status_path.empty() && count > 0) {
    obs::StatusBatchInfo info;
    info.campaign = campaign;
    info.total = count;
    info.restored = restored;
    info.completed_before = ledger().report.completed;
    info.completed = &completed_count;
    info.attempted = &finished_this_run;
    info.quarantined = &quarantined_count;
    info.retried = &retried_count;
    info.last_exec = &last_exec_id;
    info.throughput_guard = &safe_throughput;
    reporter.emplace(info, run.status_path, run.status_interval);
  }

  {
    const ScopedPhase timer(out.report.phases.execution, "execution");
    parallel_for(count, threads, [&](std::size_t rep) {
      if (status[rep].load(std::memory_order_relaxed) != kPending) return;  // restored
      if (shutdown_requested()) return;  // drain: leave the slot pending
      // Pure function of (campaign, rep): the same execution carries the
      // same id across thread counts, resume and processes.
      const std::uint64_t exec_id = obs::exec_correlation_id(campaign, rep);
      obs::set_current_exec(exec_id);
      obs::TraceSpan span("rep");
      span.arg("campaign", campaign);
      span.arg("exec", exec_id);
      span.arg("rep", rep);
      const auto start = std::chrono::steady_clock::now();
      bool ran = true;
      std::string reason;
      if (options.quarantine) {
        ran = attempt_repetition(spec, run, input_for(rep), seeds[rep], rep, retried_count,
                                 out.samples[rep], reason);
      } else {
        // Legacy contract: a throwing repetition aborts the batch through
        // parallel_for's first-by-worker-index rethrow.
        out.samples[rep] = run_one(spec, run, input_for(rep), seeds[rep]);
      }
      if (ran) {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        record_repetition_metrics(
            out.samples[rep],
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
        span.arg("rounds", out.samples[rep].rounds);
        status[rep].store(kDone, std::memory_order_release);
        completed_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        {
          const std::lock_guard<std::mutex> lock(quarantine_mutex);
          quarantined.push_back({rep, seeds[rep], reason});
        }
        status[rep].store(kQuarantined, std::memory_order_release);
        quarantined_count.fetch_add(1, std::memory_order_relaxed);
        obs::Metrics::global().counter("exec.quarantined").add(1);
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kWarn, "rep-quarantine",
                         {{"rep", rep}, {"seed", seeds[rep]}}, reason);
      }
      last_exec_id.store(exec_id, std::memory_order_relaxed);
      obs::set_current_exec(0);
      note_completed_repetition();
      const std::size_t done_now = finished_this_run.fetch_add(1, std::memory_order_relaxed) + 1;
      if (checkpointing && options.checkpoint_every > 0 &&
          done_now % options.checkpoint_every == 0) {
        // Outside the repetition try/catch on purpose: a checkpoint that
        // cannot be written must abort the batch loudly, not quarantine an
        // innocent repetition.
        flush_checkpoint();
      }
    });
  }
  // Account prior attempts' execution time after the timer closed, keeping
  // the wall_seconds == phases.execution invariant for resumed batches.
  out.report.phases.execution += prior_elapsed;

  std::size_t done = 0, pending = 0;
  for (std::size_t rep = 0; rep < count; ++rep) {
    const char state = status[rep].load(std::memory_order_acquire);
    if (state == kDone) {
      ++done;
      continue;
    }
    if (state == kPending) ++pending;
    // Give abandoned and quarantined slots a well-formed shape (the drawn
    // input, an all-zero W, consistent=false) so downstream testers can
    // index every sample without tripping on empty BitVecs.
    Sample& s = out.samples[rep];
    s.inputs = input_for(rep);
    s.announced = BitVec(spec.params.n);
    s.consistent = false;
  }
  // Final heartbeat (and TTY line cleanup) before the report is sealed.
  reporter.reset();

  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) { return a.rep < b.rep; });

  out.report.completed = done;
  out.report.partial = pending > 0;
  out.report.quarantine = std::move(quarantined);
  out.report.wall_seconds = out.report.phases.execution;
  out.report.throughput = safe_throughput(done, out.report.wall_seconds);
  for (const Sample& s : out.samples) {
    out.report.total_rounds += s.rounds;
    out.report.traffic += s.traffic;
  }

  if (obs::log_enabled()) {
    if (out.report.partial)
      obs::log_event(obs::LogLevel::kWarn, "shutdown-drain",
                     {{"completed", done}, {"pending", pending}});
    else
      obs::log_event(obs::LogLevel::kInfo, "batch-end",
                     {{"completed", done}, {"quarantined", out.report.quarantine.size()}});
  }

  if (checkpointing) {
    if (out.report.partial) {
      flush_checkpoint();  // final flush so an interrupted batch can resume
    } else {
      remove_checkpoint(checkpoint_file);  // campaign complete: nothing to resume
    }
  }
  if (out.report.partial) {
    // A drained batch may never reach Experiment::finish (the driver decides
    // what to do after a graceful stop); land the log and status sinks on
    // disk now so the interrupt loses no observability either.
    (void)obs::flush_log(run.log_path);
    (void)obs::flush_status(run.status_path);
  }
  obs::set_current_campaign(0);
  ledger_add(out.report);
  return out;
}

std::vector<std::uint64_t> fork_seeds(std::uint64_t seed, std::string_view label,
                                      std::size_t count) {
  const stats::Rng master(seed);
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t rep = 0; rep < count; ++rep) seeds[rep] = master.fork(label, rep)();
  return seeds;
}

}  // namespace

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void request_shutdown() {
  g_shutdown.store(true, std::memory_order_relaxed);
}

void clear_shutdown() {
  g_shutdown.store(false, std::memory_order_relaxed);
  g_stop_after.store(0, std::memory_order_relaxed);
  g_stop_after_completed.store(0, std::memory_order_relaxed);
}

void install_signal_handlers() {
  static bool installed = false;  // main-thread only, like every CLI setter here
  if (installed) return;
  installed = true;
  std::signal(SIGINT, shutdown_signal_handler);
  std::signal(SIGTERM, shutdown_signal_handler);
}

void set_stop_after(std::size_t completed) {
  g_stop_after_completed.store(0, std::memory_order_relaxed);
  g_stop_after.store(completed, std::memory_order_relaxed);
}

double safe_throughput(std::size_t executions, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(executions) / wall_seconds : 0.0;
}

BatchReport& BatchReport::operator+=(const BatchReport& other) {
  executions += other.executions;
  threads = std::max(threads, other.threads);
  wall_seconds += other.wall_seconds;
  total_rounds += other.total_rounds;
  traffic += other.traffic;
  phases.sampling += other.phases.sampling;
  phases.execution += other.phases.execution;
  phases.evaluation += other.phases.evaluation;
  completed += other.completed;
  partial = partial || other.partial;
  quarantine.insert(quarantine.end(), other.quarantine.begin(), other.quarantine.end());
  throughput = safe_throughput(completed, wall_seconds);
  if (campaign == 0) campaign = other.campaign;
  return *this;
}

void ledger_add(const BatchReport& report) {
  const std::lock_guard<std::mutex> lock(g_ledger_mutex);
  g_ledger.report += report;
  std::vector<std::uint64_t>& ids = g_ledger.campaigns;
  if (report.campaign != 0 && ids.size() < kCampaignListCap &&
      std::find(ids.begin(), ids.end(), report.campaign) == ids.end())
    ids.push_back(report.campaign);
}

Ledger ledger() {
  const std::lock_guard<std::mutex> lock(g_ledger_mutex);
  return g_ledger;
}

void clear_ledger() {
  const std::lock_guard<std::mutex> lock(g_ledger_mutex);
  g_ledger = Ledger{};
}

EvaluationTimer::Sink::~Sink() {
  BatchReport report;
  report.phases.evaluation = seconds;
  ledger_add(report);
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(threads < 1 ? 1 : threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      // Lane w+1 for every pool's worker w (the main thread is lane 0), so
      // repeated batches merge into stable per-worker trace lanes.
      obs::set_thread_lane(static_cast<std::uint32_t>(w + 1));
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) break;
          body(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

Runner::Runner(std::size_t threads, RunConfig config) : config_(std::move(config)) {
  if (threads != 0) config_.threads = threads;
}

void Runner::validate(const RunSpec& spec) const {
  if (spec.protocol == nullptr) throw UsageError("exec::Runner: null protocol");
  config_.faults.validate(spec.params.n);
  const net::ChaosSpec& chaos = config_.chaos;
  if (chaos.enabled() && chaos.party != net::ChaosSpec::kAllParties &&
      chaos.party >= spec.params.n)
    throw UsageError("exec::Runner: chaos party:" + std::to_string(chaos.party) +
                     " names no party of an n=" + std::to_string(spec.params.n) + " execution");
}

BatchResult Runner::run_batch(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                              std::size_t count, std::uint64_t seed) const {
  validate(spec);
  if (ensemble.bits() != spec.params.n) throw UsageError("exec::Runner: ensemble width != n");
  const stats::Rng master(seed);
  stats::Rng input_rng = master.fork("inputs");
  std::vector<BitVec> inputs;
  inputs.reserve(count);
  double sampling_seconds = 0.0;
  {
    const ScopedPhase timer(sampling_seconds, "sampling");
    for (std::size_t rep = 0; rep < count; ++rep) inputs.push_back(ensemble.sample(input_rng));
  }
  return run_prepared(spec, config_,
                      [&inputs](std::size_t rep) -> const BitVec& { return inputs[rep]; },
                      fork_seeds(seed, "exec", count), sampling_seconds);
}

BatchResult Runner::run_batch(const RunSpec& spec, const BitVec& input, std::size_t count,
                              std::uint64_t seed) const {
  validate(spec);
  if (input.size() != spec.params.n) throw UsageError("exec::Runner: input width != n");
  return run_prepared(spec, config_, [&input](std::size_t) -> const BitVec& { return input; },
                      fork_seeds(seed, "exec-fixed", count), 0.0);
}

BatchResult Runner::run_batch(const RunSpec& spec, const std::vector<BitVec>& inputs,
                              const std::vector<std::uint64_t>& seeds) const {
  validate(spec);
  if (inputs.size() != seeds.size())
    throw UsageError("exec::Runner: inputs.size() != seeds.size()");
  for (const BitVec& input : inputs)
    if (input.size() != spec.params.n) throw UsageError("exec::Runner: input width != n");
  return run_prepared(spec, config_,
                      [&inputs](std::size_t rep) -> const BitVec& { return inputs[rep]; }, seeds,
                      0.0);
}

}  // namespace simulcast::exec
