// Live campaign heartbeat (obs::Status): a periodic, machine-readable
// status stream for long-running Runner batches — the seed of the
// fleet-wide status line ROADMAP item 5 asks for.
//
// When a status sink is configured (--status=PATH / SIMULCAST_STATUS) the
// engine constructs one StatusReporter per batch, handing it the path and
// period from its exec::RunConfig.  A dedicated reporter
// thread wakes every interval (--status-interval=S, default 1s) and emits
// one heartbeat: a JSONL record appended to the in-process stream and the
// whole stream rewritten to PATH by obs::write_file's temp + rename, so
// a reader (`tail -F`, a scheduler, a dashboard) never observes a torn
// line.  When stderr is a TTY the reporter also renders a single live
// status line (overwritten in place, cleared when the batch ends).
//
// Each heartbeat carries: the campaign correlation id, the latest
// execution id a worker finished, repetition progress (total / restored /
// completed / quarantined / retried, plus a process-monotone `completed`
// that counts every batch in the exec ledger), the batch throughput
// through the exec::safe_throughput guard (injected as a function pointer — obs sits
// below exec), an ETA, and the exec.*/net.*/sim.* counter deltas since
// the previous heartbeat of this batch.
//
// The reporter only *reads*: atomics published by the engine and the
// metrics registry snapshot.  It never touches an RNG, seed or sample, so
// the never-perturbs contract (DESIGN.md section 8) holds with the status
// stream on — pinned by tests/obs/telemetry_test.cpp under TSan.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace simulcast::obs {

/// Everything a reporter needs from the batch it watches.  The pointers
/// alias engine-owned atomics that outlive the reporter; the reporter
/// only loads them (relaxed — heartbeats are approximate by nature).
struct StatusBatchInfo {
  std::uint64_t campaign = 0;  ///< correlation id of this batch
  std::size_t total = 0;       ///< repetitions in the batch
  std::size_t restored = 0;    ///< slots restored from a checkpoint
  /// Repetitions the process completed before this batch (the exec
  /// ledger's count), so `completed` stays monotone across batches and
  /// ends equal to the record's perf.completed.
  std::uint64_t completed_before = 0;
  const std::atomic<std::size_t>* completed = nullptr;    ///< done slots incl. restored
  const std::atomic<std::size_t>* attempted = nullptr;    ///< finished this run (done + quarantined)
  const std::atomic<std::size_t>* quarantined = nullptr;  ///< quarantined slots incl. restored
  const std::atomic<std::size_t>* retried = nullptr;      ///< transient-failure retries this run
  const std::atomic<std::uint64_t>* last_exec = nullptr;  ///< newest finished execution id
  /// Throughput guard (exec::safe_throughput): (executions, seconds) -> rate.
  double (*throughput_guard)(std::size_t, double) = nullptr;
};

/// RAII heartbeat emitter: starts its thread on construction, and on
/// destruction stops it, emits one final heartbeat (so even a sub-interval
/// batch leaves a complete record) and clears the TTY line.  Throws
/// UsageError unless `interval_seconds` (the heartbeat period,
/// --status-interval) is positive.
class StatusReporter {
 public:
  StatusReporter(StatusBatchInfo info, std::string path, double interval_seconds);
  StatusReporter(const StatusReporter&) = delete;
  StatusReporter& operator=(const StatusReporter&) = delete;
  ~StatusReporter();

 private:
  void run();
  void emit(bool final_beat);

  StatusBatchInfo info_;
  std::string path_;
  double interval_;
  std::vector<std::pair<std::string, std::uint64_t>> last_counters_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Rewrites the accumulated heartbeat stream to `path` (temp+rename);
/// returns the path, or "" when `path` is empty (no sink) or nothing has
/// been emitted.  The graceful-shutdown drain path and core::Experiment::finish
/// call it so the stream lands on disk.
std::string flush_status(const std::string& path);

/// Drops the accumulated heartbeat lines (tests; a new process starts
/// empty anyway).
void clear_status();

}  // namespace simulcast::obs
