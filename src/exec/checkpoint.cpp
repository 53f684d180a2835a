#include "exec/checkpoint.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "base/bytes.h"
#include "base/error.h"
#include "obs/file.h"
#include "obs/log.h"
#include "stats/rng.h"

namespace simulcast::exec {
namespace {

// The sidecar is one binary record written and read with base/bytes.h:
//
//   str magic | u32 version | str protocol | u64 n, count, config, faults,
//   stream | u64 elapsed-seconds bits | u32 slots, each
//   u64 slot | bits inputs | bits announced | u8 consistent | u64 rounds |
//   u64 per sim::kTrafficColumns entry | bytes adversary output
//   | u32 quarantined, each u64 rep | u64 seed | str reason
//
// where `bits` is u32 size | u64 packed.  Any other version (1-3 were
// text) is rejected as unreadable rather than resumed with a mismatched
// layout.
constexpr std::string_view kMagic = "simulcast-checkpoint";
constexpr std::uint32_t kVersion = 4;

void write_bits(ByteWriter& w, const BitVec& bits) {
  w.u32(static_cast<std::uint32_t>(bits.size()));
  w.u64(bits.packed());
}

BitVec read_bits(ByteReader& r) {
  const std::uint32_t size = r.u32();
  const std::uint64_t packed = r.u64();
  if (size > kMaxBits)
    throw ProtocolError("a bit vector of " + std::to_string(size) + " bits exceeds " +
                        std::to_string(kMaxBits));
  return BitVec(size, packed);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& detail) {
  throw UsageError("checkpoint: corrupt file '" + path + "': " + detail);
}

CheckpointData read_record(ByteSpan file, const std::string& path) {
  ByteReader r(file);
  if (r.str() != kMagic) corrupt(path, "bad magic");
  if (const std::uint32_t version = r.u32(); version != kVersion)
    corrupt(path, "version " + std::to_string(version) + ", expected " + std::to_string(kVersion));
  CheckpointData data;
  CampaignIdentity& id = data.identity;
  id.protocol = r.str();
  id.n = r.u64();
  id.count = r.u64();
  id.config_hash = r.u64();
  id.fault_hash = r.u64();
  id.stream_hash = r.u64();
  data.elapsed_seconds = std::bit_cast<double>(r.u64());
  for (std::uint32_t left = r.u32(); left > 0; --left) {
    SlotRecord record;
    Sample& s = record.sample;
    record.slot = r.u64();
    if (record.slot >= id.count) corrupt(path, "slot index out of range");
    s.inputs = read_bits(r);
    s.announced = read_bits(r);
    const std::uint8_t consistent = r.u8();
    if (consistent > 1) corrupt(path, "malformed consistency flag");
    s.consistent = consistent == 1;
    s.rounds = r.u64();
    for (const auto& [column, name] : sim::kTrafficColumns) s.traffic.*column = r.u64();
    s.adversary_output = r.bytes();
    data.slots.push_back(std::move(record));
  }
  for (std::uint32_t left = r.u32(); left > 0; --left) {
    QuarantineRecord q;
    q.rep = r.u64();
    if (q.rep >= id.count) corrupt(path, "quarantine index out of range");
    q.seed = r.u64();
    q.reason = r.str();
    data.quarantined.push_back(std::move(q));
  }
  if (!r.done()) corrupt(path, "trailing bytes after the record");
  return data;
}

}  // namespace

IdentityHash& IdentityHash::mix(std::uint64_t value) {
  std::uint64_t lane = state_ ^ value;
  state_ = stats::split_mix64(lane);
  return *this;
}

IdentityHash& IdentityHash::mix(double value) {
  return mix(std::bit_cast<std::uint64_t>(value));
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
  return "protocol=" + protocol + " n=" + std::to_string(n) + " count=" + std::to_string(count) +
         " config=" + obs::correlation_hex(config_hash) +
         " faults=" + obs::correlation_hex(fault_hash) +
         " stream=" + obs::correlation_hex(stream_hash);
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
  return "ckpt_" + obs::correlation_hex(identity.digest()) + ".ckpt";
}

std::string resolve_checkpoint_path(const std::string& path, const CampaignIdentity& identity) {
  return obs::resolve_sink_path(path, ".ckpt", checkpoint_filename(identity));
}

void write_checkpoint(const std::string& resolved_path, const CheckpointData& data) {
  ByteWriter w;
  w.str(kMagic);
  w.u32(kVersion);
  w.str(data.identity.protocol);
  w.u64(data.identity.n);
  w.u64(data.identity.count);
  w.u64(data.identity.config_hash);
  w.u64(data.identity.fault_hash);
  w.u64(data.identity.stream_hash);
  w.u64(std::bit_cast<std::uint64_t>(data.elapsed_seconds));
  w.u32(static_cast<std::uint32_t>(data.slots.size()));
  for (const SlotRecord& record : data.slots) {
    const Sample& s = record.sample;
    w.u64(record.slot);
    write_bits(w, s.inputs);
    write_bits(w, s.announced);
    w.u8(s.consistent ? 1 : 0);
    w.u64(s.rounds);
    for (const auto& [column, name] : sim::kTrafficColumns) w.u64(s.traffic.*column);
    w.bytes(s.adversary_output);
  }
  w.u32(static_cast<std::uint32_t>(data.quarantined.size()));
  for (const QuarantineRecord& q : data.quarantined) {
    w.u64(q.rep);
    w.u64(q.seed);
    w.str(q.reason);
  }
  const Bytes& record = w.data();
  obs::write_file(resolved_path,
                  std::string_view(reinterpret_cast<const char*>(record.data()), record.size()));
}

std::optional<CheckpointData> load_checkpoint(const std::string& resolved_path) {
  std::ifstream in(resolved_path, std::ios::binary);
  if (!in) return std::nullopt;
  const Bytes file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    return read_record(file, resolved_path);
  } catch (const ProtocolError& e) {
    corrupt(resolved_path, e.what());
  }
}

void remove_checkpoint(const std::string& resolved_path) {
  std::error_code ec;
  std::filesystem::remove(resolved_path, ec);
}

}  // namespace simulcast::exec
