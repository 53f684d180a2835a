// The wire format: a flat, length-prefixed binary framing of sim::Message
// shared by every transport backend (net/transport.h).
//
// One frame is
//
//   u32 frame_len   -- bytes following this field (little-endian, as is
//                      every integer below)
//   u8  version     -- kWireVersion; a decoder rejects anything else
//   u64 from
//   u64 to          -- party id, sim::kBroadcast or sim::kFunctionality
//   u64 round
//   u32 tag_len     -- followed by tag_len raw tag bytes
//   u32 payload_len -- followed by payload_len raw payload bytes
//   u32 crc         -- CRC32C over every byte between frame_len and here
//
// and frame_len must equal the exact size of the fields it covers —
// a frame with slack or overrun bytes is rejected, so garbage cannot hide
// inside a "valid" length prefix.  The CRC32C trailer (version 2) is
// verified *before* any field is interpreted, so a bit-flipped frame
// always surfaces as ChecksumError, never as a field-level parse of
// garbage.  (Chaos corruption never reaches this decoder: net::Link's own
// record CRC discards it first, net/link.h.)  Commitment and opening
// payloads need no special casing: protocols already canonicalize them
// into Message::payload through base/bytes.h's length-prefixed
// ByteWriter, so the frame treats every payload as opaque bytes.
//
// Frames are written and read with base/bytes.h's ByteWriter/ByteReader,
// the one codec of the program: frame_len is the length prefix of a field
// (version..crc), and the tag and payload are length-prefixed fields
// inside it.  write_message appends to a caller-owned (reusable) buffer
// with no intermediate allocation; read_message reads from a borrowed
// span through a reader over exactly the frame's bytes, which must end
// with the frame, and copies each field once into the resulting Message.
// encoded_size() prices a frame without materializing it, which is how the
// in-process transport and TrafficStats account true wire bytes without
// paying for serialization.
//
// Decoding errors (truncation, version mismatch, length inconsistencies)
// throw simulcast::ProtocolError — malformed traffic is an adversarial
// condition, never a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/bytes.h"
#include "sim/message.h"

namespace simulcast::net {

/// Bumped on any frame-layout change; a decoder rejects other versions.
/// v2: the CRC32C integrity trailer.
inline constexpr std::uint8_t kWireVersion = 2;

/// Fixed bytes of a frame beyond the tag and payload: the u32 length
/// prefix, the version byte, three u64 header fields, two u32 lengths and
/// the u32 CRC32C trailer.
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 3 * 8 + 2 * 4 + 4;

/// Exact on-wire size of `m`'s frame, length prefix included.
[[nodiscard]] inline std::size_t encoded_size(const sim::Message& m) noexcept {
  return kFrameOverhead + m.tag.size() + m.payload.size();
}

/// Appends one complete frame for `m` to `w`.
void write_message(ByteWriter& w, const sim::Message& m);
/// Reads one frame from `r`.  Throws ChecksumError when its CRC trailer
/// does not match, ProtocolError on truncated, mis-versioned or
/// length-inconsistent input.
[[nodiscard]] sim::Message read_message(ByteReader& r);

/// Single-frame helpers: encode_message appends the frame to `out`, and
/// decode_message requires `frame` to hold exactly one.
void encode_message(const sim::Message& m, Bytes& out);
[[nodiscard]] sim::Message decode_message(const Bytes& frame);

/// Closes a field `w.begin_field()` opened at `at` with a CRC32C
/// (Castagnoli) trailer over its contents: frames and reliable net::Link
/// records end this way.
void end_crc_field(ByteWriter& w, std::size_t at);
/// The contents of a field end_crc_field() closed, or nullopt when its
/// trailer does not match (or the field is shorter than a trailer).
[[nodiscard]] std::optional<ByteSpan> crc_field_contents(ByteSpan field);

/// A message batch, the tail of the process backend's kRound, kFinish and
/// kOut bodies (net/worker.h): u32 count | u32 blob_len | `count` frames.
/// read_batch replaces `out` with the batch, reading the frames in place,
/// and, since a batch always ends its body, throws ProtocolError when `r`
/// holds anything after it (or the blob anything after its frames).
void write_batch(ByteWriter& w, const sim::Inbox& batch);
void read_batch(ByteReader& r, std::vector<sim::Message>& out);

}  // namespace simulcast::net
