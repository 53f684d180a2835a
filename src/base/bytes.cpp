#include "base/bytes.h"

#include <limits>

#include "base/error.h"

namespace simulcast {

namespace {

std::uint32_t field_length(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max())
    throw UsageError("ByteWriter: a field of " + std::to_string(size) +
                     " bytes exceeds its u32 length prefix");
  return static_cast<std::uint32_t>(size);
}

/// The `count` bytes of `data` at `pos`, which then moves past them.
ByteSpan take(ByteSpan data, std::size_t& pos, std::size_t count) {
  if (count > data.size() - pos) throw ProtocolError("ByteReader: truncated message");
  const ByteSpan out = data.subspan(pos, count);
  pos += count;
  return out;
}

}  // namespace

std::string to_hex(ByteSpan data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

void ByteWriter::u32(std::uint32_t v) {
  std::uint8_t le[4];
  for (std::size_t i = 0; i < 4; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(le);
}

void ByteWriter::u64(std::uint64_t v) {
  std::uint8_t le[8];
  for (std::size_t i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(le);
}

void ByteWriter::bytes(ByteSpan data) {
  u32(field_length(data.size()));
  raw(data);
}

void ByteWriter::str(std::string_view s) {
  u32(field_length(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

std::size_t ByteWriter::begin_field() {
  const std::size_t at = out_->size();
  u32(0);
  return at;
}

void ByteWriter::end_field(std::size_t at) {
  std::uint32_t len = field_length(out_->size() - at - 4);
  for (std::size_t i = 0; i < 4; ++i, len >>= 8) (*out_)[at + i] = static_cast<std::uint8_t>(len);
}

std::uint8_t ByteReader::u8() {
  return take(data_, pos_, 1)[0];
}

std::uint32_t ByteReader::u32() {
  const ByteSpan b = take(data_, pos_, 4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  const ByteSpan b = take(data_, pos_, 8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

ByteSpan ByteReader::field() {
  const std::uint32_t len = u32();
  return take(data_, pos_, len);
}

Bytes ByteReader::bytes() {
  const ByteSpan f = field();
  return Bytes(f.begin(), f.end());
}

std::string ByteReader::str() {
  const ByteSpan f = field();
  return std::string(f.begin(), f.end());
}

}  // namespace simulcast
