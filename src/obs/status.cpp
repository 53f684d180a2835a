#include "obs/status.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "base/error.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/events.h"  // now_us: heartbeats share the trace/log epoch

namespace simulcast::obs {

namespace {

std::mutex& stream_mutex() {
  static std::mutex m;
  return m;
}

/// The heartbeat stream accumulated by every reporter of this process;
/// the whole stream is rewritten atomically each beat so readers always
/// see a complete prefix of campaign history.
std::vector<std::string>& stream_lines() {
  static std::vector<std::string> lines;
  return lines;
}

/// Process-wide repetitions completed by already-finished batches — keeps
/// the heartbeat's `completed` field monotone across a multi-batch driver.
std::atomic<std::uint64_t> g_completed_prior{0};

/// Rewrites `path` with the full stream via temp+rename (the checkpoint
/// idiom): a reader never sees a torn or truncated line.
void write_stream_locked(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  if (ec)
    throw UsageError("obs::Status: cannot create '" + path + "': " + ec.message());
  const fs::path temp(path + ".tmp");
  {
    std::ofstream out(temp, std::ios::trunc);
    for (const std::string& line : stream_lines()) out << line << '\n';
    out.flush();
    if (!out) throw UsageError("obs::Status: cannot write '" + temp.string() + "'");
  }
  fs::rename(temp, target, ec);
  if (ec)
    throw UsageError("obs::Status: cannot rename '" + temp.string() + "' into place: " +
                     ec.message());
}

bool counter_is_live(std::string_view name) {
  return name.rfind("exec.", 0) == 0 || name.rfind("net.", 0) == 0 ||
         name.rfind("sim.", 0) == 0;
}

}  // namespace

StatusReporter::StatusReporter(StatusBatchInfo info, std::string path, double interval_seconds)
    : info_(info),
      path_(std::move(path)),
      interval_(interval_seconds),
      completed_prior_(g_completed_prior.load(std::memory_order_relaxed)),
      start_(std::chrono::steady_clock::now()) {
  if (!(interval_seconds > 0.0))
    throw UsageError("obs::Status: heartbeat interval must be positive");
  for (const CounterSnapshot& c : Metrics::global().snapshot().counters)
    if (counter_is_live(c.name)) last_counters_.emplace_back(c.name, c.value);
  thread_ = std::thread([this] { run(); });
}

StatusReporter::~StatusReporter() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  emit(true);
  const std::size_t completed =
      info_.completed == nullptr ? 0 : info_.completed->load(std::memory_order_relaxed);
  g_completed_prior.store(completed_prior_ + completed, std::memory_order_relaxed);
  if (::isatty(STDERR_FILENO)) std::fprintf(stderr, "\r\x1b[K");
}

void StatusReporter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::duration<double>(interval_));
    if (stop_) break;
    lock.unlock();
    emit(false);
    lock.lock();
  }
}

void StatusReporter::emit(bool final_beat) {
  const auto load = [](const std::atomic<std::size_t>* p) {
    return p == nullptr ? std::size_t{0} : p->load(std::memory_order_relaxed);
  };
  const std::size_t completed = load(info_.completed);
  const std::size_t attempted = load(info_.attempted);
  const std::size_t quarantined = load(info_.quarantined);
  const std::size_t retried = load(info_.retried);
  const std::uint64_t last_exec =
      info_.last_exec == nullptr ? 0 : info_.last_exec->load(std::memory_order_relaxed);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double rate =
      info_.throughput_guard == nullptr ? 0.0 : info_.throughput_guard(attempted, elapsed);
  const std::size_t reached = info_.restored + attempted;
  const std::size_t remaining = info_.total > reached ? info_.total - reached : 0;
  const bool eta_known = rate > 0.0 && std::isfinite(rate);
  const double eta = eta_known ? static_cast<double>(remaining) / rate
                               : std::numeric_limits<double>::quiet_NaN();

  std::string line = "{\"ts_us\":" + Json::number(detail::now_us());
  line += ",\"campaign\":";
  line += info_.campaign == 0 ? "null" : Json::quote(correlation_hex(info_.campaign));
  line += ",\"last_exec\":";
  line += last_exec == 0 ? "null" : Json::quote(correlation_hex(last_exec));
  line += ",\"final\":" + Json::boolean(final_beat);
  line += ",\"total\":" + Json::number(std::uint64_t{info_.total});
  line += ",\"restored\":" + Json::number(std::uint64_t{info_.restored});
  line += ",\"batch_completed\":" + Json::number(std::uint64_t{completed});
  line += ",\"completed\":" + Json::number(completed_prior_ + completed);
  line += ",\"quarantined\":" + Json::number(std::uint64_t{quarantined});
  line += ",\"retried\":" + Json::number(std::uint64_t{retried});
  line += ",\"exec_per_sec\":" + Json::number(rate);
  line += ",\"eta_seconds\":" + Json::number(eta);  // null when unknown
  line += ",\"counters\":{";
  bool first = true;
  std::vector<std::pair<std::string, std::uint64_t>> current;
  for (const CounterSnapshot& c : Metrics::global().snapshot().counters) {
    if (!counter_is_live(c.name)) continue;
    current.emplace_back(c.name, c.value);
    std::uint64_t previous = 0;
    for (const auto& [name, value] : last_counters_)
      if (name == c.name) previous = value;
    const std::uint64_t delta = c.value >= previous ? c.value - previous : c.value;
    if (delta == 0) continue;
    if (!first) line += ",";
    line += Json::quote(c.name) + ":" + Json::number(delta);
    first = false;
  }
  last_counters_ = std::move(current);
  line += "}}";

  {
    const std::lock_guard<std::mutex> lock(stream_mutex());
    stream_lines().push_back(std::move(line));
    if (!path_.empty()) write_stream_locked(path_);
  }

  if (::isatty(STDERR_FILENO)) {
    const std::string campaign = correlation_hex(info_.campaign).substr(0, 8);
    if (eta_known)
      std::fprintf(stderr, "\r[status] %s %zu/%zu reps (%zu quarantined) %.1f exec/s eta %.1fs\x1b[K",
                   campaign.c_str(), completed, info_.total, quarantined, rate, eta);
    else
      std::fprintf(stderr, "\r[status] %s %zu/%zu reps (%zu quarantined)\x1b[K", campaign.c_str(),
                   completed, info_.total, quarantined);
    std::fflush(stderr);
  }
}

std::string flush_status(const std::string& path) {
  if (path.empty()) return {};
  const std::lock_guard<std::mutex> lock(stream_mutex());
  if (stream_lines().empty()) return {};
  write_stream_locked(path);
  return path;
}

void clear_status() {
  const std::lock_guard<std::mutex> lock(stream_mutex());
  stream_lines().clear();
  g_completed_prior.store(0, std::memory_order_relaxed);
}

}  // namespace simulcast::obs
