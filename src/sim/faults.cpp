#include "sim/faults.h"

#include <optional>
#include <sstream>

#include "base/error.h"
#include "base/parse.h"

namespace simulcast::sim {

bool FaultPlan::empty() const noexcept {
  return drop_probability == 0.0 && max_delay == 0 && crashes.empty() && partitions.empty();
}

void FaultPlan::validate(std::size_t n) const {
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0))
    throw UsageError("FaultPlan: drop_probability must be in [0, 1]");
  if (max_delay > kMaxDelay)
    throw UsageError("FaultPlan: delay " + std::to_string(max_delay) + " exceeds the cap of " +
                     std::to_string(kMaxDelay) + " rounds");
  for (const CrashFault& c : crashes)
    if (c.party >= n) throw UsageError("FaultPlan: crash party id out of range");
  for (const Partition& p : partitions) {
    if (p.side.empty()) throw UsageError("FaultPlan: partition side must be nonempty");
    for (PartyId id : p.side)
      if (id >= n) throw UsageError("FaultPlan: partition member id out of range");
  }
}

std::string FaultPlan::summary() const {
  if (empty()) return "none";
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << " ";
    first = false;
  };
  if (drop_probability > 0.0) {
    sep();
    os << "drop=" << drop_probability;
  }
  if (max_delay > 0) {
    sep();
    os << "delay<=" << max_delay;
  }
  if (!crashes.empty()) {
    sep();
    os << "crash=[";
    for (std::size_t i = 0; i < crashes.size(); ++i)
      os << (i ? "," : "") << crashes[i].party << "@" << crashes[i].round;
    os << "]";
  }
  if (!partitions.empty()) {
    sep();
    os << "partition=[";
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      const Partition& p = partitions[i];
      os << (i ? ";" : "") << "{";
      for (std::size_t j = 0; j < p.side.size(); ++j) os << (j ? "," : "") << p.side[j];
      os << "}@" << p.from << ":";
      if (p.until == std::numeric_limits<Round>::max())
        os << "end";
      else
        os << p.until;
    }
    os << "]";
  }
  return os.str();
}

std::vector<CrashFault> parse_crash_schedule(std::string_view text) {
  std::vector<CrashFault> crashes;
  std::stringstream ss{std::string(text)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t at = item.find('@');
    const std::optional<std::uint64_t> party = parse_uint(std::string_view(item).substr(0, at));
    const std::optional<std::uint64_t> round =
        at == std::string::npos ? std::nullopt : parse_uint(std::string_view(item).substr(at + 1));
    if (!party || !round)
      throw UsageError("crash schedule: expected party@round, got '" + item + "'");
    crashes.push_back({static_cast<PartyId>(*party), static_cast<Round>(*round)});
  }
  if (crashes.empty()) throw UsageError("crash schedule: empty");
  return crashes;
}

}  // namespace simulcast::sim
