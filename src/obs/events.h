// The per-thread telemetry event store (obs::Event): the one buffer behind
// execution tracing (obs/trace.h, rendered as Perfetto JSON) and the
// structured event log (obs/log.h, rendered as JSONL).
//
// The hot path is a protocol round executing on a Runner worker, so
// recording must cost nothing when its sink is off — each front end checks
// its own enable flag, one relaxed atomic load, and builds no event — and
// allocate no per-event heap when it is on.  An event is a static-string
// name, a lane id, microsecond timestamps and up to four numeric args (plus
// the correlation ids and free-text detail that only log events fill),
// appended to a thread-local ring of fixed-size blocks: a push is a bounds
// check plus a move, and a block is allocated only every 1024 events.
// Stores are registered process-wide and outlive their threads, so a drain
// sees every worker's lane.  At kMaxEventsPerThread the thread's oldest
// event is overwritten and the obs.dropped_events counter records the
// loss, so it is never silent.
//
// Determinism contract (DESIGN.md section 8): events only *observe*.  No
// RNG, seed or sample value is touched, so every output of the repository
// is bit-identical with tracing and logging on or off, at every thread
// count (pinned by tests/exec/runner_test.cpp and
// tests/obs/telemetry_test.cpp).
//
// Concurrency contract: record from any thread; drain only while no worker
// is recording.  The engine satisfies this for free: parallel_for joins its
// workers before returning, and the join is the happens-before edge TSan
// needs (ctest -L sanitize covers the store with both sinks enabled).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace simulcast::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// A numeric event attribute.  Keys must be string literals (or otherwise
/// outlive the store): the hot path stores pointers, formatting happens
/// only when a renderer runs.
struct EventArg {
  const char* key;
  std::uint64_t value;
};

/// One buffered event: a trace span or instant, or a log event.
struct Event {
  static constexpr std::size_t kMaxArgs = 4;

  const char* name = nullptr;        ///< string literal: span, instant or log-event name
  char ph = 'X';                     ///< 'X' complete span | 'i' instant | 'L' log event
  LogLevel level = LogLevel::kInfo;  ///< log events only
  std::uint32_t lane = 0;            ///< recording thread's lane (0 = main, k = worker k)
  std::uint64_t ts_us = 0;           ///< microseconds since the process epoch
  std::uint64_t dur_us = 0;          ///< span duration ('X' only)
  std::uint64_t campaign = 0;        ///< log events: campaign id, 0 = outside any batch
  std::uint64_t exec = 0;            ///< log events: execution id, 0 = outside any repetition
  std::array<const char*, kMaxArgs> arg_keys{};
  std::array<std::uint64_t, kMaxArgs> arg_values{};
  std::uint8_t arg_count = 0;
  std::string detail;                ///< log events: free text (quarantine reason, path, ...)

  [[nodiscard]] bool is_log() const noexcept { return ph == 'L'; }

  /// Attaches a numeric arg; args beyond kMaxArgs are dropped.
  void add_arg(const char* key, std::uint64_t value) noexcept {
    if (arg_count >= kMaxArgs) return;
    arg_keys[arg_count] = key;
    arg_values[arg_count] = value;
    ++arg_count;
  }
};

/// Which renderer an event feeds: spans and instants go to the trace, 'L'
/// events to the log.
enum class EventKind : std::uint8_t { kTrace, kLog };

/// Per-thread capacity of the store (about 80 MB of events).
inline constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 19;

namespace detail {
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<bool> g_log_enabled;
[[nodiscard]] std::uint64_t now_us();
void record_event(Event event);
}  // namespace detail

/// True when a trace sink is configured.  Relaxed load: the hot path's
/// entire cost with tracing off.
[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// True when a log sink is configured.  Relaxed load — the entire cost of
/// a log site with logging off (plus building any detail string, so guard
/// string construction with this at hot-ish sites).
[[nodiscard]] inline bool log_enabled() {
  return detail::g_log_enabled.load(std::memory_order_relaxed);
}

/// Open or close the two hot-path gates.  exec::install_run_config derives
/// them from the trace and log sink paths.  Not thread-safe: call from main
/// before spawning batches.
void set_trace_enabled(bool on);
void set_log_enabled(bool on);

/// The calling thread's lane id (trace "tid", log "lane").  The Runner
/// assigns lane w+1 to worker w of every pool, so repeated batches merge
/// into stable per-worker lanes; the main thread is lane 0.
void set_thread_lane(std::uint32_t lane);
[[nodiscard]] std::uint32_t thread_lane();

/// Moves every buffered event of `kind` out of every thread's store, sorted
/// by (timestamp, lane); events of the other kind stay buffered.  Call only
/// while no worker thread is recording.
[[nodiscard]] std::vector<Event> drain_events(EventKind kind);

/// Discards every buffered event of both kinds.
void clear_events();

}  // namespace simulcast::obs
