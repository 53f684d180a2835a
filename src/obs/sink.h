// The machine-readable results sink.
//
// core::Experiment::finish writes each driver's finished ExperimentRecord
// to the JSON path of the installed exec::RunConfig (--json=PATH next to
// --threads, or the SIMULCAST_JSON environment variable).  A PATH ending
// in ".json" names the output file exactly; any other PATH is treated as a
// directory (created if missing) receiving one BENCH_<id>.json per
// experiment — `bench_eN --json=out/` drops out/BENCH_<id>.json next to
// the printed tables.
#pragma once

#include <string>
#include <string_view>

#include "obs/records.h"

namespace simulcast::obs {

/// "BENCH_<id>.json" with '/' and whitespace in the id replaced by '_'
/// (e.g. "E2/cr-impossibility" -> "BENCH_E2_cr-impossibility.json").
/// Throws UsageError when the id is empty or all separators — such ids
/// would silently collide on one "BENCH_.json" file.
[[nodiscard]] std::string bench_filename(std::string_view id);

/// Writes the record under `path` (file-or-directory semantics above)
/// atomically (obs/file.h: a killed driver never leaves a truncated
/// record) and returns the full path written, or "" when `path` is empty —
/// no sink, the default: printing-only runs pay nothing for the
/// observability layer.  Throws UsageError when the path cannot be created
/// or written.
std::string write_record(const ExperimentRecord& record, const std::string& path);

}  // namespace simulcast::obs
