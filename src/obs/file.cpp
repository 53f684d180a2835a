#include "obs/file.h"

#include <filesystem>
#include <fstream>

#include "base/error.h"

namespace simulcast::obs {

void write_file(const std::string& path, std::string_view content, WriteMode mode) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  if (ec) throw UsageError("obs::write_file: cannot create '" + path + "': " + ec.message());
  const bool append = mode == WriteMode::kAppend;
  const fs::path written = append ? target : fs::path(path + ".tmp");
  {
    std::ofstream out(written, append ? std::ios::app : std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) throw UsageError("obs::write_file: cannot write '" + written.string() + "'");
  }
  if (append) return;
  fs::rename(written, target, ec);
  if (ec)
    throw UsageError("obs::write_file: cannot rename '" + written.string() + "' into place: " +
                     ec.message());
}

std::string resolve_sink_path(const std::string& path, std::string_view suffix,
                              const std::string& name) {
  if (path.ends_with(suffix)) return path;
  return (std::filesystem::path(path) / name).string();
}

}  // namespace simulcast::obs
