#include "obs/log.h"

#include <array>
#include <atomic>
#include <utility>
#include <vector>

#include "base/bytes.h"
#include "obs/file.h"
#include "obs/json.h"

namespace simulcast::obs {

namespace {

std::atomic<std::uint64_t> g_current_campaign{0};
thread_local std::uint64_t t_current_exec = 0;

}  // namespace

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

void log_event(LogLevel level, const char* event, std::initializer_list<EventArg> args,
               std::string detail_text) {
  if (event == nullptr || !log_enabled()) return;
  Event record;
  record.name = event;
  record.ph = 'L';
  record.level = level;
  record.lane = thread_lane();
  record.ts_us = detail::now_us();
  record.campaign = current_campaign();
  record.exec = current_exec();
  for (const EventArg& arg : args) record.add_arg(arg.key, arg.value);
  record.detail = std::move(detail_text);
  detail::record_event(std::move(record));
}

void set_current_campaign(std::uint64_t id) {
  g_current_campaign.store(id, std::memory_order_relaxed);
}

std::uint64_t current_campaign() {
  return g_current_campaign.load(std::memory_order_relaxed);
}

void set_current_exec(std::uint64_t id) {
  t_current_exec = id;
}

std::uint64_t current_exec() {
  return t_current_exec;
}

std::uint64_t exec_correlation_id(std::uint64_t campaign, std::uint64_t rep) {
  // SplitMix64 finalizer over campaign ^ golden-ratio-striped rep: cheap,
  // well-mixed, and a pure function of its inputs so the id survives
  // resume and recomputation in another process.
  std::uint64_t x = campaign ^ (rep * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

std::string correlation_hex(std::uint64_t id) {
  std::array<std::uint8_t, 8> big_endian{};
  for (std::size_t i = 0; i < 8; ++i) big_endian[i] = static_cast<std::uint8_t>(id >> (56 - 8 * i));
  return to_hex(big_endian);
}

std::string log_line(const Event& record) {
  std::string line = "{\"ts_us\":" + Json::number(record.ts_us);
  line += ",\"level\":" + Json::quote(log_level_name(record.level));
  line += ",\"event\":" + Json::quote(record.name == nullptr ? "" : record.name);
  line += ",\"lane\":" + Json::number(std::uint64_t{record.lane});
  line += ",\"campaign\":";
  line += record.campaign == 0 ? "null" : Json::quote(correlation_hex(record.campaign));
  line += ",\"exec\":";
  line += record.exec == 0 ? "null" : Json::quote(correlation_hex(record.exec));
  for (std::uint8_t a = 0; a < record.arg_count; ++a)
    line += "," + Json::quote(record.arg_keys[a]) + ":" + Json::number(record.arg_values[a]);
  if (!record.detail.empty()) line += ",\"detail\":" + Json::quote(record.detail);
  line += "}";
  return line;
}

std::string flush_log(const std::string& path) {
  if (path.empty()) return {};
  std::string lines;
  for (const Event& record : drain_events(EventKind::kLog)) lines += log_line(record) + '\n';
  write_file(path, lines, WriteMode::kAppend);
  return path;
}

}  // namespace simulcast::obs
