#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>

#include "base/error.h"
#include "obs/json.h"

namespace simulcast::obs {

namespace {

bool ends_with_json(std::string_view path) {
  constexpr std::string_view suffix = ".json";
  return path.size() >= suffix.size() && path.substr(path.size() - suffix.size()) == suffix;
}

void append_event(Json& json, const Event& event) {
  json.object_begin()
      .member("name", event.name == nullptr ? "" : event.name)
      .member("ph", std::string_view(&event.ph, 1))
      .member("pid", std::uint64_t{1})
      .member("tid", std::uint64_t{event.lane})
      .member("ts", event.ts_us);
  if (event.ph == 'X') json.member("dur", event.dur_us);
  if (event.ph == 'i') json.member("s", "t");  // thread-scoped instant
  if (event.arg_count > 0) {
    json.key("args").object_begin();
    for (std::uint8_t a = 0; a < event.arg_count; ++a)
      json.member(event.arg_keys[a], event.arg_values[a]);
    json.object_end();
  }
  json.object_end();
}

void append_metadata(Json& json, const char* name, std::uint32_t tid, const std::string& value) {
  json.object_begin()
      .member("name", name)
      .member("ph", "M")
      .member("pid", std::uint64_t{1})
      .member("tid", std::uint64_t{tid})
      .key("args")
      .object_begin()
      .member("name", value)
      .object_end()
      .object_end();
}

}  // namespace

void trace_instant(const char* name, std::initializer_list<EventArg> args) {
  if (name == nullptr || !trace_enabled()) return;
  Event event;
  event.name = name;
  event.ph = 'i';
  event.lane = thread_lane();
  event.ts_us = detail::now_us();
  for (const EventArg& arg : args) event.add_arg(arg.key, arg.value);
  detail::record_event(std::move(event));
}

std::string trace_document(const std::vector<Event>& events) {
  std::vector<std::uint32_t> lanes;
  for (const Event& event : events) lanes.push_back(event.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());

  Json json;
  json.object_begin().key("traceEvents").array_begin();
  append_metadata(json, "process_name", 0, "simulcast");
  for (const std::uint32_t lane : lanes)
    append_metadata(json, "thread_name", lane,
                    lane == 0 ? std::string("main") : "worker-" + std::to_string(lane));
  for (const Event& event : events) append_event(json, event);
  json.array_end().member("displayTimeUnit", "ms").object_end();
  return json.str() + "\n";
}

std::string experiment_stem(std::string_view id) {
  std::string stem;
  stem.reserve(id.size());
  bool usable = false;
  for (const char c : id) {
    const bool separator = c == '/' || std::isspace(static_cast<unsigned char>(c));
    stem += separator ? '_' : c;
    usable = usable || !separator;
  }
  if (!usable)
    throw UsageError("obs::experiment_stem: experiment id '" + std::string(id) +
                     "' has no usable characters; records would collide on one filename");
  return stem;
}

std::string trace_filename(std::string_view id) {
  return "TRACE_" + experiment_stem(id) + ".json";
}

std::string write_trace(std::string_view experiment_id, const std::string& path) {
  if (path.empty()) return {};
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path target(path);
  if (ends_with_json(path)) {
    if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  } else {
    fs::create_directories(target, ec);
    target /= trace_filename(experiment_id);
  }
  if (ec) throw UsageError("obs::write_trace: cannot create '" + path + "': " + ec.message());
  const std::string document = trace_document(drain_events(EventKind::kTrace));
  std::ofstream out(target, std::ios::trunc);
  out << document;
  out.flush();
  if (!out) throw UsageError("obs::write_trace: cannot write '" + target.string() + "'");
  return target.string();
}

}  // namespace simulcast::obs
