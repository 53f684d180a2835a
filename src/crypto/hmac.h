// HMAC-SHA256 (RFC 2104) and HMAC-DRBG (NIST SP 800-90A).
//
// HMAC-DRBG supplies protocol randomness wherever a party needs bytes that
// must be unpredictable to the adversary (commitment blinding, VSS
// polynomial coefficients, signature keys).  It is deterministic given its
// seed, which keeps whole protocol executions replayable.
#pragma once

#include <string_view>

#include "base/bytes.h"
#include "crypto/sha256.h"

namespace simulcast::crypto {

/// Precomputed-key HMAC-SHA256.  set_key() compresses the ipad/opad blocks
/// once and caches the midstates, so every subsequent MAC under the same
/// key skips both pad compressions — for the 32-byte keys HMAC-DRBG uses,
/// that halves the SHA-256 work per invocation.
class HmacSha256 {
 public:
  HmacSha256() = default;
  explicit HmacSha256(const Bytes& key) { set_key(key.data(), key.size()); }

  /// (Re)keys the context; hashes keys longer than one block first, per
  /// RFC 2104.
  void set_key(const std::uint8_t* key, std::size_t len) noexcept;
  void set_key(const Digest& key) noexcept { set_key(key.data(), key.size()); }

  /// Starts a MAC: a context primed with the inner-pad midstate.  Absorb
  /// the message into it, then call finish().
  [[nodiscard]] Sha256 begin() const noexcept {
    return Sha256(inner_mid_, kSha256BlockSize);
  }

  /// Completes a MAC started by begin().
  [[nodiscard]] Digest finish(Sha256& inner) const noexcept;

  /// One-shot convenience over a (data, len) message.
  [[nodiscard]] Digest mac(const std::uint8_t* data, std::size_t len) const noexcept;

 private:
  Sha256Midstate inner_mid_{};
  Sha256Midstate outer_mid_{};
};

/// Deterministic random bit generator per SP 800-90A (HMAC variant, no
/// prediction resistance and no reseeding: one seed per stream).
class HmacDrbg {
 public:
  /// Instantiates from entropy || nonce || personalization.
  explicit HmacDrbg(const Bytes& seed_material);

  /// Convenience: seed from a 64-bit seed plus a personalization string.
  HmacDrbg(std::uint64_t seed, std::string_view personalization);

  /// Generates `length` pseudorandom bytes.
  [[nodiscard]] Bytes generate(std::size_t length);

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform value in [0, bound) by rejection sampling.  bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);

 private:
  void update(const std::uint8_t* material, std::size_t len);
  void generate_into(std::uint8_t* out, std::size_t length);

  Digest key_{};
  Digest value_{};
  HmacSha256 hmac_;  ///< keyed by key_; rekeyed whenever key_ changes
};

}  // namespace simulcast::crypto
