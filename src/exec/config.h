// Run configuration (exec::RunConfig): every condition a campaign runs
// under — pool width, transport, network stall deadline, wire chaos, fault
// plan, resilience options and telemetry sinks — as one value.
//
// A driver's entry point builds it once with configure(): the command-line
// knobs first, then the five SIMULCAST_* environment variables for what
// the command line left unset, all parsed strictly (a malformed, unknown or
// repeated knob exits 2 with the usage line).  configure() installs the
// result as the process value that Runner and Session take by default and
// that core::finish_experiment reads sink paths and record metadata from.
// Installing also opens the event store's two hot-path gates
// (obs/events.h) and sets the net default transport.  Lower layers never
// read the installed value: what net and obs need travels down as
// sim::ExecutionConfig fields and constructor arguments.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "net/chaos.h"
#include "net/transport.h"
#include "sim/faults.h"

namespace simulcast::exec {

/// Campaign-resilience knobs for one batch.  The defaults reproduce the
/// legacy engine exactly: no checkpointing, no watchdog, and a throwing
/// repetition aborts the batch (first exception out of parallel_for).
struct BatchOptions {
  /// Checkpoint sidecar location ("" = checkpointing off).  A path ending
  /// in ".ckpt" names the file exactly (single-batch campaigns); anything
  /// else is a directory receiving one ckpt_<identity-hash>.ckpt per batch,
  /// so multi-batch drivers checkpoint each batch independently.
  std::string checkpoint_path;
  /// Load the checkpoint (verifying its identity tuple), restore completed
  /// slots verbatim and execute only the rest.  By the purity contract the
  /// final samples are bit-identical to an uninterrupted run.
  bool resume = false;
  /// Per-repetition wall-clock deadline in seconds (0 = no watchdog).  An
  /// expired repetition is abandoned at its next round boundary and
  /// quarantined; the batch keeps going.
  double rep_timeout = 0.0;
  /// Bounded retries (exponential backoff) for repetitions failing with
  /// transient errors (std::bad_alloc, I/O).  Only consulted when
  /// `quarantine` is on.
  int retries = 0;
  /// Capture failing repetitions as QuarantineRecords (reproducer seed into
  /// the experiment record) instead of aborting the batch.  Off by default:
  /// the legacy contract — exceptions propagate — is what the existing
  /// tests and callers rely on.  The parser turns it on whenever --retries
  /// or --rep-timeout is given.
  bool quarantine = false;
  /// Checkpoint flush cadence in completed slots (also flushed at shutdown
  /// and on batch completion, so a graceful stop never loses work).
  std::size_t checkpoint_every = 16;
};

struct RunConfig {
  /// Pool width (--threads, SIMULCAST_THREADS).  Results never depend on
  /// it; only wall-clock does.
  std::size_t threads = 1;
  /// Backend moving messages between rounds (--transport).
  net::TransportKind transport = net::TransportKind::kInProcess;
  /// Stall deadline of the socket and process backends (--net-timeout).
  std::chrono::milliseconds net_timeout = net::kDefaultNetTimeout;
  /// Wire chaos below the transport (--chaos); inert by default.
  net::ChaosSpec chaos;
  /// Fault plan (--drop, --delay, --crash) for every batch whose RunSpec
  /// carries an empty one.
  sim::FaultPlan faults;
  /// --checkpoint, --resume, --rep-timeout, --retries.
  BatchOptions batch;
  /// Graceful self-interrupt after this many repetitions process-wide
  /// (--stop-after; 0 = off).  install_run_config arms it.
  std::size_t stop_after = 0;
  /// Sink paths; "" = off.  JSON and trace paths ending in ".json" name the
  /// file, anything else is a directory (obs/sink.h, obs/trace.h); log and
  /// status paths always name a file.
  std::string json_path;    ///< --json, SIMULCAST_JSON
  std::string trace_path;   ///< --trace, SIMULCAST_TRACE
  std::string log_path;     ///< --log, SIMULCAST_LOG
  std::string status_path;  ///< --status, SIMULCAST_STATUS
  /// Heartbeat period in seconds (--status-interval).
  double status_interval = 1.0;
};

/// Builds a RunConfig from argv (argv[0] names the program in the usage
/// line) and then the SIMULCAST_THREADS/JSON/TRACE/LOG/STATUS variables
/// for knobs the command line did not give.  Parsing is strict: a
/// malformed value, an unrecognized argument (a silently ignored
/// "--thread=4" runs the whole experiment serially) or a repeated knob
/// (which of "--threads=2 --threads=8" ran?) exits 2 with the usage line,
/// as do --resume without --checkpoint and --chaos on the in-process
/// backend (no wire to disturb).  Arguments matching one of the
/// `pass_through` prefixes are left for the caller's own parser (the micro
/// benches pass {"--benchmark_"}).
[[nodiscard]] RunConfig parse_run_config(int argc, char** argv,
                                         std::initializer_list<std::string_view> pass_through = {});

/// Installs `config` as the process value: sets net::default_transport_kind,
/// opens the trace and log gates when their sinks are configured and arms
/// the stop-after trigger.  Not thread-safe: call from main before spawning
/// batches.
void install_run_config(RunConfig config);

/// The installed value (the defaults until something installs one).  Its
/// `transport` is the live net::default_transport_kind(), which embedders
/// such as the benchmark harness may set directly.
[[nodiscard]] RunConfig run_config();

/// The driver entry point, first thing in main.  In order it
///   - hands a re-exec'd process-transport worker to sim::maybe_worker_main
///     and exits with its code (a worker must never fall through into a
///     campaign of its own);
///   - parses and installs the RunConfig (exit 2 on a bad knob);
///   - arms the SIGINT/SIGTERM graceful-shutdown handlers;
///   - installs a terminate handler under which a simulcast::UsageError
///     escaping main (say a --crash party the campaign's n does not have,
///     caught by Runner::validate before sampling) flushes stdout, prints
///     "error: <what>" to stderr and exits 2; any other uncaught exception
///     still aborts through the default handler.
/// Returns the installed value.
RunConfig configure(int argc, char** argv,
                    std::initializer_list<std::string_view> pass_through = {});

}  // namespace simulcast::exec
