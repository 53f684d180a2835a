#include "obs/sink.h"

#include <filesystem>
#include <fstream>

#include "base/error.h"
#include "obs/trace.h"

namespace simulcast::obs {

namespace {

bool ends_with_json(std::string_view path) {
  constexpr std::string_view suffix = ".json";
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

}  // namespace

std::string bench_filename(std::string_view id) {
  // experiment_stem throws UsageError on an empty or all-separator id: two
  // such ids would silently collide on "BENCH_.json".
  return "BENCH_" + experiment_stem(id) + ".json";
}

std::string write_record(const ExperimentRecord& record, const std::string& path) {
  if (path.empty()) return {};
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path target(path);
  if (ends_with_json(path)) {
    if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  } else {
    fs::create_directories(target, ec);
    target /= bench_filename(record.id);
  }
  if (ec)
    throw UsageError("obs::write_record: cannot create '" + path + "': " + ec.message());
  std::ofstream out(target, std::ios::trunc);
  out << to_json(record);
  out.flush();
  if (!out)
    throw UsageError("obs::write_record: cannot write '" + target.string() + "'");
  return target.string();
}

}  // namespace simulcast::obs
