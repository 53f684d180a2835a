// Structured event log (obs::Log): leveled JSONL events for the
// load-bearing moments of a campaign — retries, quarantines, watchdog
// fires, checkpoint flushes, socket stalls, injected faults.
//
// The log is the narrative twin of the trace: traces answer "where did the
// time go", the log answers "what happened".  Log events live in the same
// per-thread event store as trace spans (obs/events.h, with its
// determinism and concurrency contracts) and are merged timestamp-sorted at
// flush time into an append-mode JSONL file, one object per line, so a
// crashed or interrupted campaign still leaves its story on disk and
// `tail -f` / `jq` work unmodified.  Unlike the trace sink the log path
// always names a file: appending across batches is the point, there is no
// per-experiment fan-out.
//
// Every event carries the correlation ids of its context: the *campaign
// id* (the checkpoint identity digest of the running batch — stable across
// interrupt/resume and across processes computing the same work unit) and
// the *execution id* (a per-repetition mix of campaign and rep).  The same
// ids ride trace span args, status heartbeats and record metadata, so the
// three artifacts of one run join on them (DESIGN.md section 13).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/events.h"

namespace simulcast::obs {

/// "debug" | "info" | "warn" | "error".
[[nodiscard]] std::string_view log_level_name(LogLevel level);

/// Records one log event into the calling thread's event store, stamping
/// the timestamp, lane and current correlation ids.  No-op when logging is
/// off or `event` is null.
void log_event(LogLevel level, const char* event, std::initializer_list<EventArg> args = {},
               std::string detail = {});

// --- correlation ids -----------------------------------------------------

/// The campaign id of the batch currently running (process-wide; batches
/// are sequential).  0 = no batch.  Set by exec::Runner at batch start.
void set_current_campaign(std::uint64_t id);
[[nodiscard]] std::uint64_t current_campaign();

/// The execution id of the repetition this thread is running (0 between
/// repetitions).  Set by the Runner worker around each repetition.
void set_current_exec(std::uint64_t id);
[[nodiscard]] std::uint64_t current_exec();

/// Mixes (campaign, rep) into a per-execution correlation id.  Pure
/// function of its inputs, so an execution keeps its id across resume,
/// thread counts and processes.  Never returns 0.
[[nodiscard]] std::uint64_t exec_correlation_id(std::uint64_t campaign, std::uint64_t rep);

/// Fixed-width lower-case 16-hex rendering — the wire form of an id
/// (matches exec::CampaignIdentity::digest()'s checkpoint filename form).
[[nodiscard]] std::string correlation_hex(std::uint64_t id);

// --- rendering ---------------------------------------------------------

/// Renders one log event as a single JSONL line (no trailing newline):
/// {"ts_us":..,"level":"..","event":"..","lane":..,"campaign":"16hex"|null,
///  "exec":"16hex"|null, <args...>, "detail":".."?}
[[nodiscard]] std::string log_line(const Event& record);

/// Drains the log events and appends one line per event to `path` (parent
/// directories created).  Returns `path`, or "" (draining nothing) when
/// `path` is empty — no sink.  Throws UsageError when the file cannot be
/// written.
std::string flush_log(const std::string& path);

}  // namespace simulcast::obs
