#include "net/wire.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <string_view>

#include "base/error.h"

namespace simulcast::net {

namespace {

std::uint32_t checked_u32(std::size_t value, const char* what) {
  if (value > std::numeric_limits<std::uint32_t>::max())
    throw UsageError(std::string("wire: ") + what + " exceeds the u32 framing limit");
  return static_cast<std::uint32_t>(value);
}

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

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t size, std::uint32_t seed) noexcept {
  const std::uint32_t* table = crc32c_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

void WireWriter::raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), bytes, bytes + size);
}

void WireWriter::message(const sim::Message& m) {
  const std::size_t body = encoded_size(m) - 4;  // everything the prefix covers
  u32(checked_u32(body, "frame length"));
  const std::size_t covered_from = out_.size();  // CRC covers version..payload
  u8(kWireVersion);
  u64(static_cast<std::uint64_t>(m.from));
  u64(static_cast<std::uint64_t>(m.to));
  u64(static_cast<std::uint64_t>(m.round));
  const std::string_view tag = m.tag.str();
  u32(checked_u32(tag.size(), "tag length"));
  raw(tag.data(), tag.size());
  u32(checked_u32(m.payload.size(), "payload length"));
  raw(m.payload.data(), m.payload.size());
  u32(crc32c(out_.data() + covered_from, out_.size() - covered_from));
}

void WireReader::need(std::size_t count) const {
  if (size_ - pos_ < count)
    throw ProtocolError("wire: truncated frame (needed " + std::to_string(count) +
                        " bytes, had " + std::to_string(size_ - pos_) + ")");
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t WireReader::u32() {
  need(4);
  pos_ += 4;
  return get_u32(data_ + pos_ - 4);
}

std::uint64_t WireReader::u64() {
  need(8);
  pos_ += 8;
  return get_u64(data_ + pos_ - 8);
}

sim::Message WireReader::message() {
  const std::uint64_t body = u32();
  // The frame must fit in the remaining input...
  need(body);
  if (body < kFrameOverhead - 4)
    throw ProtocolError("wire: frame length " + std::to_string(body) +
                        " below the fixed overhead");
  const std::size_t frame_end = pos_ + body;
  // Integrity before interpretation: the CRC32C trailer is verified over
  // the whole covered region before any field is trusted, so a bit-flipped
  // frame is always a ChecksumError — never a field-level parse of garbage.
  {
    const std::uint32_t stored = get_u32(data_ + frame_end - 4);
    const std::uint32_t computed = crc32c(data_ + pos_, body - 4);
    if (stored != computed)
      throw ChecksumError("wire: frame failed its CRC32C check (stored " +
                          std::to_string(stored) + ", computed " + std::to_string(computed) +
                          ")");
  }
  const std::uint8_t version = u8();
  if (version != kWireVersion)
    throw ProtocolError("wire: unsupported frame version " + std::to_string(version) +
                        " (expected " + std::to_string(kWireVersion) + ")");
  sim::Message m;
  m.from = static_cast<sim::PartyId>(u64());
  m.to = static_cast<sim::PartyId>(u64());
  m.round = static_cast<sim::Round>(u64());
  const std::uint32_t tag_len = u32();
  // ...and each variable field must fit in the frame (a hostile tag_len may
  // not reach past frame_end into the next frame of the stream).
  if (frame_end - pos_ < tag_len)
    throw ProtocolError("wire: tag length overruns the frame");
  // Interning happens here, at the decode boundary: the wire format still
  // carries the tag name; in-memory Messages carry the 32-bit id.
  m.tag = sim::Tag(std::string_view(reinterpret_cast<const char*>(data_ + pos_), tag_len));
  pos_ += tag_len;
  if (frame_end - pos_ < 4) throw ProtocolError("wire: truncated payload length");
  const std::uint32_t payload_len = u32();
  if (frame_end - pos_ < payload_len)
    throw ProtocolError("wire: payload length overruns the frame");
  m.payload.assign(data_ + pos_, data_ + pos_ + payload_len);
  pos_ += payload_len;
  // The prefix must cover the fields exactly (plus the CRC trailer): slack
  // bytes inside a frame are smuggled data, not padding.
  if (pos_ + 4 != frame_end)
    throw ProtocolError("wire: frame length prefix does not match its contents (" +
                        std::to_string(frame_end - pos_ - 4) + " slack bytes)");
  pos_ = frame_end;  // consume the verified CRC trailer
  return m;
}

void encode_message(const sim::Message& m, Bytes& out) {
  WireWriter(out).message(m);
}

sim::Message decode_message(const Bytes& frame) {
  WireReader reader(frame);
  sim::Message m = reader.message();
  if (!reader.done())
    throw ProtocolError("wire: trailing bytes after a single-frame decode");
  return m;
}

void write_batch(ByteWriter& w, const sim::Inbox& batch) {
  Bytes blob;
  WireWriter frames(blob);
  for (const sim::Message& m : batch) frames.message(m);
  w.u32(static_cast<std::uint32_t>(batch.size()));
  w.bytes(blob);
}

void read_batch(ByteReader& r, std::vector<sim::Message>& out) {
  const std::uint32_t count = r.u32();
  const Bytes blob = r.bytes();
  if (!r.done()) throw ProtocolError("wire: trailing bytes after a message batch");
  out.clear();
  out.reserve(std::min<std::size_t>(count, blob.size() / kFrameOverhead));  // count is untrusted
  WireReader frames(blob);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(frames.message());
  if (!frames.done()) throw ProtocolError("wire: message batch blob has trailing bytes");
}

}  // namespace simulcast::net
