// Coordinator side of the process transport: the per-execution supervisor
// that spawns one worker process per honest party, handshakes each one
// (net/worker.h), drives the begin / round / finish RPCs on behalf of the
// scheduler, and maps every way a worker can die onto the scheduler's
// crash accounting.
//
// Lifecycle of one worker slot:
//
//   spawn ──handshake──▶ live ──kFinish reply──▶ exited ──shutdown──▶ reaped
//                          │
//                          ├─ observed death (EOF / stall / spent chaos
//                          │      budget) ─▶ reaped, WorkerLost thrown; the
//                          │      scheduler books the same crash a
//                          │      sim::FaultPlan entry would have produced
//                          └─ retire() (scheduled crash, fail-in-place)
//                                 ─▶ SIGKILL + reaped
//
// A reaped slot stays empty: the fault model demands a dead party stay
// dead.  The supervisor has no crash knob of its own; sim::FaultPlan is
// the one crash schedule, and tests that need a real `kill -9` wrap their
// protocol so the worker SIGKILLs itself (DESIGN.md section 14).
//
// Every transition feeds proc.* registry metrics and worker-* log events
// carrying the correlation ids of DESIGN.md section 13.  Handshake
// failures are ProtocolError (the worker is killed and reaped first — no
// zombies); spawn syscall failures are std::system_error, which
// exec::Runner's retry policy treats as transient.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "base/error.h"
#include "net/chaos.h"
#include "net/transport.h"
#include "net/worker.h"
#include "sim/message.h"

namespace simulcast::net {

/// A worker died (EOF on its channel, or no reply within the stall
/// deadline).  The scheduler catches this and books the party as crashed
/// — it is the process-mode spelling of a CrashFault, not a failure of
/// the execution.
class WorkerLost : public Error {
 public:
  WorkerLost(const std::string& what, std::size_t party) : Error(what), party_(party) {}
  [[nodiscard]] std::size_t party() const noexcept { return party_; }

 private:
  std::size_t party_;
};

/// One execution's crew of worker processes.  Single-threaded, owned by
/// one run_execution call (concurrent Runner workers each own their own
/// supervisor, like every per-execution object).
class ProcSupervisor {
 public:
  /// `hello` is what every worker is told (its slot and input are filled
  /// in per spawn).  Like a worker, the supervisor parses the chaos spec
  /// out of it: channels of targeted parties switch to resilient framing
  /// after the handshake, and a channel whose retransmit budget runs out
  /// surfaces as WorkerLost, bit-for-bit the crash a FaultPlan entry at
  /// that round would have produced.  `net_timeout` (--net-timeout) bounds
  /// handshakes, replies and reaping, and is handed to every worker on its
  /// command line.  Throws UsageError on an unparsable chaos spec.
  ProcSupervisor(std::chrono::milliseconds net_timeout, WorkerHello hello);
  ~ProcSupervisor();

  ProcSupervisor(const ProcSupervisor&) = delete;
  ProcSupervisor& operator=(const ProcSupervisor&) = delete;

  /// Spawns and handshakes the worker for party `id` (posix_spawn of
  /// /proc/self/exe).  Throws std::system_error when the spawn itself
  /// fails, ProtocolError when the handshake does (the child is killed
  /// and reaped first).
  void spawn(std::size_t id, bool input);

  /// The three scheduler RPCs.  Outbox messages come back in queue order;
  /// finish() returns the party's output (nullopt when the machine could
  /// not produce one).  A worker that failed in place (ProtocolError in
  /// its machine) surfaces as ProtocolError; a dead worker as WorkerLost
  /// (reaped before the throw).
  [[nodiscard]] std::vector<sim::Message> begin(std::size_t id);
  [[nodiscard]] std::vector<sim::Message> round(std::size_t id, std::size_t round,
                                                const sim::Inbox& inbox);
  [[nodiscard]] std::optional<BitVec> finish(std::size_t id, const sim::Inbox& inbox);

  /// Kills and reaps party `id`'s worker (scheduled crash / fail-in-place
  /// path; no-op on already-reaped slots).  noexcept: called from
  /// destructors.
  void retire(std::size_t id) noexcept;

  /// Graceful end of execution: closes every channel (EOF is the
  /// shutdown signal) and reaps every remaining worker, escalating to
  /// SIGKILL only past the stall deadline.  Idempotent; the destructor
  /// runs it as a safety net.
  void shutdown() noexcept;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::unique_ptr<WorkerChannel> channel;
  };

  void reap(std::size_t id, bool force_kill) noexcept;
  /// Reaps a worker observed dead and throws WorkerLost.
  [[noreturn]] void observe_death(std::size_t id, const char* how);
  [[nodiscard]] WorkerChannel& live_channel(std::size_t id);
  /// One RPC: sends `request` and returns the body of the `reply` frame.
  /// Every way the worker can fail to answer goes through observe_death;
  /// a kFailed reply (fail-in-place) or any other type is ProtocolError.
  [[nodiscard]] Bytes call(std::size_t id, ProcFrame request, const Bytes& body,
                           ProcFrame reply);

  std::chrono::milliseconds net_timeout_;
  WorkerHello hello_;
  ChaosSpec chaos_;
  std::vector<Worker> workers_;
  /// Coordinator-side chaos accounting, folded into net.chaos.* at
  /// shutdown.  Worker-side counters die with the worker process —
  /// documented asymmetry of the process backend.
  ChaosStats chaos_stats_;
};

}  // namespace simulcast::net
