// The program's one byte codec: a canonical serializer and hex rendering.
//
// ByteWriter writes length-prefixed fields so that concatenation
// ambiguities (e.g. commit("ab","c") vs commit("a","bc")) cannot occur, and
// ByteReader reads them back from a borrowed span.  Every byte the program
// puts on a wire or on disk goes through this pair: protocol payloads and
// hashed transcripts, net frames and message batches (net/wire.h),
// net::Link records, process-control bodies and the checkpoint sidecar.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simulcast {

using Bytes = std::vector<std::uint8_t>;

/// A borrowed run of bytes.  A `const Bytes&` converts to it, the way a
/// std::string converts to std::string_view.
using ByteSpan = std::span<const std::uint8_t>;

/// Lowercase hex rendering of a byte buffer.
[[nodiscard]] std::string to_hex(ByteSpan data);

/// Canonical, unambiguous serializer: integers are little-endian, and
/// every variable-length field carries a u32 length prefix.  bytes(),
/// str() and end_field() throw UsageError for a field too long for it.
class ByteWriter {
 public:
  /// Writes into a buffer of its own, handed out by take().
  ByteWriter() = default;
  /// Adopts `buf` as its own buffer (cleared, capacity kept) — the hook
  /// that lets pooled buffers (sim/pool.h) flow through take() with no
  /// fresh allocation.
  explicit ByteWriter(Bytes&& buf) : own_(std::move(buf)) { own_.clear(); }
  /// Appends to `out`, which the caller owns and keeps alive while the
  /// writer is in use (a reused encode buffer, an outbox).
  explicit ByteWriter(Bytes& out) : out_(&out) {}
  /// Not copyable or movable: out_ may point at own_.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed raw bytes.
  void bytes(ByteSpan data);
  /// Length-prefixed string.
  void str(std::string_view s);
  /// Raw bytes with no prefix (inside a field begin_field() opened).
  void raw(ByteSpan data) { out_->insert(out_->end(), data.begin(), data.end()); }

  /// Opens a length-prefixed field whose bytes the next writes append:
  /// writes a placeholder prefix and returns its offset for end_field().
  [[nodiscard]] std::size_t begin_field();
  /// Fills in the prefix at `at` with the length of everything written
  /// since begin_field().
  void end_field(std::size_t at);

  [[nodiscard]] const Bytes& data() const noexcept { return *out_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(*out_); }

 private:
  Bytes own_;
  Bytes* out_ = &own_;
};

/// Mirror-image reader over a borrowed span; throws simulcast::ProtocolError
/// on truncated input.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  /// A length-prefixed field, copied out.
  [[nodiscard]] Bytes bytes();
  [[nodiscard]] std::string str();
  /// A length-prefixed field, borrowed: no copy, and a ByteReader over it
  /// cannot read past the field's length prefix.
  [[nodiscard]] ByteSpan field();
  /// True when all input has been consumed.
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace simulcast
