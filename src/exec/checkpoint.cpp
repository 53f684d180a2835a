#include "exec/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/bytes.h"
#include "base/error.h"
#include "base/parse.h"

namespace simulcast::exec {
namespace {

// v2 added wire_bytes / wire_delivered_bytes to each slot's traffic fields
// (the transport refactor's serialized-byte accounting).  v3 dropped the
// deprecated payload-only counts alongside record schema v6.  Old sidecars
// are rejected as unreadable rather than resumed with a mismatched layout.
constexpr std::string_view kMagic = "simulcast-checkpoint v3";

// SplitMix64 finalizer: one cheap, well-mixed permutation per lane so the
// accumulator is order-sensitive and avalanche-complete.
std::uint64_t split_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return std::string(buffer);
}

std::uint64_t parse_hex16(const std::string& text, const char* what) {
  if (text.size() != 16 || text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw UsageError(std::string("checkpoint: malformed ") + what + " '" + text + "'");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    value = (value << 4) | static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return value;
}

// Doubles round-trip through their bit pattern, not decimal text: the
// elapsed-seconds partial must survive write/load exactly so a resumed
// report equals an uninterrupted one to the bit.
std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// BitVecs and Bytes may be empty (a quarantined slot's announced vector, an
// adversary with no output); "-" marks empty so every field stays exactly
// one whitespace-delimited token.
std::string bits_token(const BitVec& bits) {
  const std::string text = bits.to_string();
  return text.empty() ? std::string("-") : text;
}

BitVec token_bits(const std::string& token) {
  return token == "-" ? BitVec() : BitVec::from_string(token);
}

std::string bytes_token(const Bytes& bytes) {
  return bytes.empty() ? std::string("-") : to_hex(bytes);
}

Bytes token_bytes(const std::string& token) {
  return token == "-" ? Bytes() : from_hex(token);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& detail) {
  throw UsageError("checkpoint: corrupt file '" + path + "': " + detail);
}

}  // namespace

IdentityHash& IdentityHash::mix(std::uint64_t value) {
  state_ = split_mix(state_ ^ value);
  return *this;
}

IdentityHash& IdentityHash::mix(double value) {
  return mix(double_bits(value));
}

IdentityHash& IdentityHash::mix(std::string_view text) {
  mix(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return *this;
}

IdentityHash& IdentityHash::mix(const Bytes& bytes) {
  mix(static_cast<std::uint64_t>(bytes.size()));
  for (const auto b : bytes) mix(static_cast<std::uint64_t>(b));
  return *this;
}

IdentityHash& IdentityHash::mix(const BitVec& bits) {
  mix(static_cast<std::uint64_t>(bits.size()));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    mix(static_cast<std::uint64_t>(bits.get(i) ? 1 : 0));
  }
  return *this;
}

bool CampaignIdentity::operator==(const CampaignIdentity& other) const {
  return protocol == other.protocol && n == other.n && count == other.count &&
         config_hash == other.config_hash && fault_hash == other.fault_hash &&
         stream_hash == other.stream_hash;
}

std::string CampaignIdentity::describe() const {
  std::ostringstream out;
  out << "protocol=" << protocol << " n=" << n << " count=" << count
      << " config=" << hex16(config_hash) << " faults=" << hex16(fault_hash)
      << " stream=" << hex16(stream_hash);
  return out.str();
}

std::uint64_t CampaignIdentity::digest() const {
  IdentityHash hash;
  hash.mix(protocol)
      .mix(static_cast<std::uint64_t>(n))
      .mix(static_cast<std::uint64_t>(count))
      .mix(config_hash)
      .mix(fault_hash)
      .mix(stream_hash);
  return hash.value();
}

std::string checkpoint_filename(const CampaignIdentity& identity) {
  return "ckpt_" + hex16(identity.digest()) + ".ckpt";
}

std::string resolve_checkpoint_path(const std::string& path, const CampaignIdentity& identity) {
  constexpr std::string_view kSuffix = ".ckpt";
  if (path.size() >= kSuffix.size() &&
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
    return path;
  }
  return (std::filesystem::path(path) / checkpoint_filename(identity)).string();
}

void write_checkpoint(const std::string& resolved_path, const CheckpointData& data) {
  const std::filesystem::path target(resolved_path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    // An EEXIST-style race is fine; a real failure surfaces on open below.
  }
  const std::filesystem::path temp = target.string() + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) {
      throw UsageError("checkpoint: cannot write '" + temp.string() +
                       "': " + std::strerror(errno));
    }
    out << kMagic << "\n";
    out << "protocol " << data.identity.protocol << "\n";
    out << "identity n=" << data.identity.n << " count=" << data.identity.count
        << " config=" << hex16(data.identity.config_hash)
        << " faults=" << hex16(data.identity.fault_hash)
        << " stream=" << hex16(data.identity.stream_hash) << "\n";
    out << "elapsed " << hex16(double_bits(data.elapsed_seconds)) << "\n";
    for (const SlotRecord& record : data.slots) {
      const Sample& s = record.sample;
      out << "slot " << record.slot << ' ' << bits_token(s.inputs) << ' '
          << bits_token(s.announced) << ' ' << (s.consistent ? 1 : 0) << ' ' << s.rounds << ' ';
      for (const auto& [column, name] : sim::kTrafficColumns) out << s.traffic.*column << ' ';
      out << bytes_token(s.adversary_output) << "\n";
    }
    for (const QuarantineRecord& q : data.quarantined) {
      out << "quarantine " << q.rep << ' ' << q.seed << ' ' << q.reason << "\n";
    }
    out << "end " << data.slots.size() << ' ' << data.quarantined.size() << "\n";
    out.flush();
    if (!out) {
      throw UsageError("checkpoint: short write to '" + temp.string() + "'");
    }
  }
  std::filesystem::rename(temp, target, ec);
  if (ec) {
    throw UsageError("checkpoint: cannot rename '" + temp.string() + "' to '" + target.string() +
                     "': " + ec.message());
  }
}

std::optional<CheckpointData> load_checkpoint(const std::string& resolved_path) {
  std::ifstream in(resolved_path);
  if (!in) return std::nullopt;

  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    corrupt(resolved_path, "bad magic line");
  }

  CheckpointData data;
  if (!std::getline(in, line) || line.rfind("protocol ", 0) != 0) {
    corrupt(resolved_path, "missing protocol line");
  }
  data.identity.protocol = line.substr(std::string_view("protocol ").size());

  if (!std::getline(in, line)) corrupt(resolved_path, "missing identity line");
  {
    std::istringstream fields(line);
    std::string tag, n_f, count_f, config_f, faults_f, stream_f;
    fields >> tag >> n_f >> count_f >> config_f >> faults_f >> stream_f;
    if (!fields || tag != "identity" || n_f.rfind("n=", 0) != 0 ||
        count_f.rfind("count=", 0) != 0 || config_f.rfind("config=", 0) != 0 ||
        faults_f.rfind("faults=", 0) != 0 || stream_f.rfind("stream=", 0) != 0) {
      corrupt(resolved_path, "malformed identity line");
    }
    const std::optional<std::uint64_t> n = parse_uint(std::string_view(n_f).substr(2));
    const std::optional<std::uint64_t> count = parse_uint(std::string_view(count_f).substr(6));
    if (!n || !count) corrupt(resolved_path, "malformed identity counts");
    data.identity.n = *n;
    data.identity.count = *count;
    data.identity.config_hash = parse_hex16(config_f.substr(7), "config hash");
    data.identity.fault_hash = parse_hex16(faults_f.substr(7), "fault hash");
    data.identity.stream_hash = parse_hex16(stream_f.substr(7), "stream hash");
  }

  if (!std::getline(in, line)) corrupt(resolved_path, "missing elapsed line");
  {
    std::istringstream fields(line);
    std::string tag, bits_f;
    fields >> tag >> bits_f;
    if (!fields || tag != "elapsed") corrupt(resolved_path, "malformed elapsed line");
    data.elapsed_seconds = bits_double(parse_hex16(bits_f, "elapsed bits"));
  }

  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "slot") {
      SlotRecord record;
      Sample& s = record.sample;
      std::string inputs_f, announced_f, adversary_f;
      int consistent = 0;
      fields >> record.slot >> inputs_f >> announced_f >> consistent >> s.rounds;
      for (const auto& [column, name] : sim::kTrafficColumns) fields >> s.traffic.*column;
      fields >> adversary_f;
      if (!fields || (consistent != 0 && consistent != 1)) {
        corrupt(resolved_path, "malformed slot line");
      }
      try {
        s.inputs = token_bits(inputs_f);
        s.announced = token_bits(announced_f);
        s.adversary_output = token_bytes(adversary_f);
      } catch (const Error&) {
        corrupt(resolved_path, "malformed slot payload");
      }
      s.consistent = consistent == 1;
      if (record.slot >= data.identity.count) {
        corrupt(resolved_path, "slot index out of range");
      }
      data.slots.push_back(std::move(record));
    } else if (tag == "quarantine") {
      QuarantineRecord q;
      fields >> q.rep >> q.seed;
      if (!fields) corrupt(resolved_path, "malformed quarantine line");
      std::getline(fields, q.reason);
      if (!q.reason.empty() && q.reason.front() == ' ') q.reason.erase(0, 1);
      if (q.rep >= data.identity.count) {
        corrupt(resolved_path, "quarantine index out of range");
      }
      data.quarantined.push_back(std::move(q));
    } else if (tag == "end") {
      std::size_t slots = 0, quarantined = 0;
      fields >> slots >> quarantined;
      if (!fields || slots != data.slots.size() || quarantined != data.quarantined.size()) {
        corrupt(resolved_path, "trailer count mismatch (truncated file?)");
      }
      saw_end = true;
      break;
    } else {
      corrupt(resolved_path, "unknown record '" + tag + "'");
    }
  }
  if (!saw_end) corrupt(resolved_path, "missing trailer (truncated file?)");
  return data;
}

void remove_checkpoint(const std::string& resolved_path) {
  std::error_code ec;
  std::filesystem::remove(resolved_path, ec);
}

}  // namespace simulcast::exec
