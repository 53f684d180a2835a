// The one writer behind every file the observability sinks and the
// checkpoint layer leave on disk: records, traces, the event log, the
// status stream and checkpoints.
//
// A whole-file write goes to `<path>.tmp` first and is renamed into place,
// so a reader (`tail -F`, a scheduler, compare.sh) or a driver killed
// mid-write never sees a truncated file — it sees the previous version or
// the new one.  The event log appends instead: appending across batches
// is its point.  Both create missing parent directories.
#pragma once

#include <string>
#include <string_view>

namespace simulcast::obs {

enum class WriteMode {
  kReplace,  ///< temp file + rename: the whole file, atomically
  kAppend,   ///< append to the file, creating it when missing
};

/// Writes `content` to `path` in `mode`.  Throws UsageError when the
/// parent directory cannot be created or the file cannot be written.
void write_file(const std::string& path, std::string_view content,
                WriteMode mode = WriteMode::kReplace);

/// The sinks' file-or-directory rule: a `path` ending in `suffix` (".json",
/// ".ckpt") names the file exactly; any other path is a directory and the
/// file is `path/name`.
[[nodiscard]] std::string resolve_sink_path(const std::string& path, std::string_view suffix,
                                            const std::string& name);

}  // namespace simulcast::obs
