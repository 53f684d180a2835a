#include "obs/sink.h"

#include "obs/file.h"
#include "obs/trace.h"

namespace simulcast::obs {

std::string bench_filename(std::string_view id) {
  // experiment_stem throws UsageError on an empty or all-separator id: two
  // such ids would silently collide on "BENCH_.json".
  return "BENCH_" + experiment_stem(id) + ".json";
}

std::string write_record(const ExperimentRecord& record, const std::string& path) {
  if (path.empty()) return {};
  const std::string target = resolve_sink_path(path, ".json", bench_filename(record.id));
  write_file(target, to_json(record));
  return target;
}

}  // namespace simulcast::obs
