// Execution tracing (obs::Trace): spans and instants recorded into the
// per-thread event store (obs/events.h) and rendered as Chrome trace-event
// / Perfetto-compatible JSON.
//
// A span records nothing and builds no event unless tracing is on; the
// determinism and concurrency contracts are the event store's.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.h"

namespace simulcast::obs {

/// RAII span: captures the start timestamp on construction and records one
/// complete ('X') event on destruction.  A null name, or tracing being
/// off, makes every member a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (name != nullptr && trace_enabled()) {
      name_ = name;
      start_us_ = detail::now_us();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (name_ == nullptr) return;
    Event event;
    event.name = name_;
    event.lane = thread_lane();
    event.ts_us = start_us_;
    event.dur_us = detail::now_us() - start_us_;
    for (std::uint8_t a = 0; a < arg_count_; ++a) event.add_arg(args_[a].key, args_[a].value);
    detail::record_event(std::move(event));
  }

  /// Attaches a numeric arg (up to Event::kMaxArgs; extras dropped).
  void arg(const char* key, std::uint64_t value) {
    if (name_ == nullptr || arg_count_ >= Event::kMaxArgs) return;
    args_[arg_count_++] = {key, value};
  }

 private:
  const char* name_ = nullptr;  ///< null = not recording
  std::uint64_t start_us_ = 0;
  std::array<EventArg, Event::kMaxArgs> args_{};
  std::uint8_t arg_count_ = 0;
};

/// Records one instant ('i') event with the given counters.
void trace_instant(const char* name, std::initializer_list<EventArg> args = {});

/// Renders events as a Chrome trace-event JSON document ({"traceEvents":
/// [...]}): process/thread_name metadata rows for every lane present, then
/// one object per event with ph/ts/tid (+dur for spans, +s:"t" for
/// instants) and an "args" object when counters are attached.  The shape
/// is pinned by tests/obs/golden_trace.json.
[[nodiscard]] std::string trace_document(const std::vector<Event>& events);

/// "<id>" with '/' and whitespace mapped to '_'.  Throws UsageError when
/// nothing usable survives (empty or all-separator id): two such ids would
/// silently collide on one BENCH_/TRACE_ filename.
[[nodiscard]] std::string experiment_stem(std::string_view id);

/// "TRACE_<stem>.json" (the trace twin of obs::bench_filename).
[[nodiscard]] std::string trace_filename(std::string_view id);

/// Drains the trace events and writes the document under `path`: a path
/// ending in ".json" names the file exactly, anything else is a directory
/// receiving one TRACE_<id>.json per experiment.  Returns the full path
/// written, or "" (draining nothing) when `path` is empty — no sink.
/// Throws UsageError when the path cannot be created or written.
std::string write_trace(std::string_view experiment_id, const std::string& path);

}  // namespace simulcast::obs
