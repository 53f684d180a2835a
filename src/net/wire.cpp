#include "net/wire.h"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>

#include "base/error.h"

namespace simulcast::net {

namespace {

/// Byte-at-a-time CRC32C lookup table (Castagnoli polynomial 0x1EDC6F41,
/// reflected form 0x82F63B78), built once at first use.
const std::uint32_t* crc32c_table() noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  return table.data();
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size) noexcept {
  const std::uint32_t* table = crc32c_table();
  std::uint32_t crc = ~0u;
  for (std::size_t i = 0; i < size; ++i) crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

}  // namespace

void end_crc_field(ByteWriter& w, std::size_t at) {
  const Bytes& out = w.data();
  w.u32(crc32c(out.data() + at + 4, out.size() - at - 4));
  w.end_field(at);
}

std::optional<ByteSpan> crc_field_contents(ByteSpan field) {
  if (field.size() < 4) return std::nullopt;
  const ByteSpan contents = field.first(field.size() - 4);
  if (ByteReader(field.last(4)).u32() != crc32c(contents.data(), contents.size()))
    return std::nullopt;
  return contents;
}

void write_message(ByteWriter& w, const sim::Message& m) {
  const std::size_t at = w.begin_field();
  w.u8(kWireVersion);
  w.u64(static_cast<std::uint64_t>(m.from));
  w.u64(static_cast<std::uint64_t>(m.to));
  w.u64(static_cast<std::uint64_t>(m.round));
  w.str(m.tag.str());
  w.bytes(m.payload);
  end_crc_field(w, at);
}

sim::Message read_message(ByteReader& r) {
  const ByteSpan frame = r.field();
  // Integrity before interpretation: the CRC32C trailer is verified over
  // the whole covered region before any field is trusted, so a bit-flipped
  // frame is always a ChecksumError — never a field-level parse of garbage.
  const std::optional<ByteSpan> covered = crc_field_contents(frame);
  if (!covered) throw ChecksumError("wire: frame failed its CRC32C check");
  // A reader over exactly the frame: no field can reach into the next
  // frame of the stream, and it must end with the frame.
  ByteReader f(*covered);
  const std::uint8_t version = f.u8();
  if (version != kWireVersion)
    throw ProtocolError("wire: unsupported frame version " + std::to_string(version) +
                        " (expected " + std::to_string(kWireVersion) + ")");
  sim::Message m;
  m.from = static_cast<sim::PartyId>(f.u64());
  m.to = static_cast<sim::PartyId>(f.u64());
  m.round = static_cast<sim::Round>(f.u64());
  // Interning happens here, at the decode boundary: the wire format still
  // carries the tag name; in-memory Messages carry the 32-bit id.
  const ByteSpan tag = f.field();
  m.tag = sim::Tag(std::string_view(reinterpret_cast<const char*>(tag.data()), tag.size()));
  const ByteSpan payload = f.field();
  m.payload.assign(payload.begin(), payload.end());
  // Slack bytes inside a frame are smuggled data, not padding.
  if (!f.done()) throw ProtocolError("wire: frame length prefix does not match its contents");
  return m;
}

void encode_message(const sim::Message& m, Bytes& out) {
  ByteWriter w(out);
  write_message(w, m);
}

sim::Message decode_message(const Bytes& frame) {
  ByteReader r(frame);
  sim::Message m = read_message(r);
  if (!r.done()) throw ProtocolError("wire: trailing bytes after a single-frame decode");
  return m;
}

void write_batch(ByteWriter& w, const sim::Inbox& batch) {
  w.u32(static_cast<std::uint32_t>(batch.size()));
  const std::size_t blob = w.begin_field();
  for (const sim::Message& m : batch) write_message(w, m);
  w.end_field(blob);
}

void read_batch(ByteReader& r, std::vector<sim::Message>& out) {
  const std::uint32_t count = r.u32();
  const ByteSpan blob = r.field();
  if (!r.done()) throw ProtocolError("wire: trailing bytes after a message batch");
  out.clear();
  out.reserve(std::min<std::size_t>(count, blob.size() / kFrameOverhead));  // count is untrusted
  ByteReader frames(blob);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(read_message(frames));
  if (!frames.done()) throw ProtocolError("wire: message batch blob has trailing bytes");
}

}  // namespace simulcast::net
