// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the root of trust for the whole crypto substrate: hash
// commitments, HMAC/DRBG, Lamport one-time signatures and Merkle trees are
// all built on it.  The implementation is a straightforward, portable
// streaming compressor; it is not constant-time (we are a protocol
// simulator, not a production TLS stack) but it is bit-exact against the
// NIST test vectors (see tests/crypto/sha256_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "base/bytes.h"

namespace simulcast::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// A chaining value captured at a block boundary, resumable via the
/// midstate constructor below.  HMAC keys cache their ipad/opad states this
/// way so a keyed MAC skips re-compressing the pad blocks (crypto/hmac.h).
using Sha256Midstate = std::array<std::uint32_t, 8>;

/// Streaming SHA-256 context.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Resumes from a midstate after `absorbed` bytes (must be a multiple of
  /// the block size) have already been compressed into it.
  Sha256(const Sha256Midstate& midstate, std::uint64_t absorbed) noexcept
      : state_(midstate), buffer_{}, total_len_(absorbed) {}

  /// Absorbs `len` bytes at `data`.
  void update(const std::uint8_t* data, std::size_t len) noexcept;
  void update(const Bytes& data) noexcept { update(data.data(), data.size()); }
  void update(std::string_view s) noexcept {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// The chaining value so far.  Only meaningful at a block boundary
  /// (total bytes absorbed divisible by kSha256BlockSize).
  [[nodiscard]] Sha256Midstate midstate() const noexcept { return state_; }

  /// Finishes and returns the digest.  The context must not be reused.
  [[nodiscard]] Digest finish() noexcept;

 private:
  void compress(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// Streaming counterpart of base/bytes.h ByteWriter: emits the identical
/// length-prefixed field encoding, but absorbs it straight into a Sha256
/// context instead of materializing a buffer.  Multi-field hashes
/// (commitment preimages, domain-separated transcripts) use this to hash
/// without a heap allocation per call.
class HashWriter {
 public:
  void u8(std::uint8_t v) noexcept { ctx_.update(&v, 1); }
  void u32(std::uint32_t v) noexcept;
  /// Length-prefixed raw bytes.
  void bytes(const Bytes& data) noexcept {
    u32(static_cast<std::uint32_t>(data.size()));
    ctx_.update(data);
  }
  /// Length-prefixed string.
  void str(std::string_view s) noexcept {
    u32(static_cast<std::uint32_t>(s.size()));
    ctx_.update(s);
  }

  [[nodiscard]] Digest finish() noexcept { return ctx_.finish(); }

 private:
  Sha256 ctx_;
};

/// One-shot hash.
[[nodiscard]] Digest sha256(const Bytes& data) noexcept;
[[nodiscard]] Digest sha256(std::string_view data) noexcept;

/// Domain-separated hash: sha256(len(domain) || domain || data).  All
/// protocol-internal hashing goes through this to keep uses disjoint.
[[nodiscard]] Digest sha256_tagged(std::string_view domain, const Bytes& data);

/// Digest as a Bytes buffer (convenience for serializers).
[[nodiscard]] Bytes digest_bytes(const Digest& d);

/// Constant-time digest comparison.
[[nodiscard]] bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace simulcast::crypto
