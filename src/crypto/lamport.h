// Hash-based signatures: Lamport one-time signatures plus a Merkle
// many-time extension.
//
// The Dolev-Strong authenticated broadcast (broadcast/dolev_strong.h) needs
// unforgeable signatures; the paper's model lets us assume any standard
// signature, and hash-based signatures keep the whole substrate reducible
// to SHA-256 (see DESIGN.md "Substitutions").  A Lamport key signs exactly
// one 256-bit digest; MerkleSigner pre-generates 2^h one-time keys (all
// derived from one seed, so key material is O(1)) and authenticates each
// one-time public key under a single Merkle root.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "base/bytes.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace simulcast::crypto {

inline constexpr std::size_t kLamportChains = 2 * 256;

/// Lamport one-time key pair; the private key is re-derivable from the seed.
struct LamportKeyPair {
  Bytes seed;                 ///< 32-byte secret seed
  std::vector<Digest> pk;     ///< 512 digests: H(sk[b][i])
};

/// One-time signature: 256 revealed preimages.
struct LamportSignature {
  std::vector<Bytes> preimages;  ///< 256 entries of 32 bytes
};

/// Derives a key pair from a 32-byte seed.
[[nodiscard]] LamportKeyPair lamport_keygen(const Bytes& seed);

/// Signs a digest (one-time!  reusing a key leaks the private key).
[[nodiscard]] LamportSignature lamport_sign(const LamportKeyPair& key, const Digest& message);

/// Verifies a signature against the public key.
[[nodiscard]] bool lamport_verify(const std::vector<Digest>& pk, const Digest& message,
                                  const LamportSignature& sig);

/// Compact encoding of a Lamport public key (hash of all 512 digests),
/// used as a Merkle leaf.
[[nodiscard]] Bytes lamport_pk_leaf(const std::vector<Digest>& pk);

/// Many-time signature under a Merkle root over 2^height one-time keys.
struct MerkleSignature {
  std::uint32_t key_index = 0;
  std::vector<Digest> one_time_pk;
  LamportSignature one_time_sig;
  MerklePath path;
};

class MerkleSigner {
 public:
  /// Derives 2^height one-time keys from `seed`.
  MerkleSigner(const Bytes& seed, std::size_t height);

  [[nodiscard]] const Digest& public_root() const noexcept { return tree_.root(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t used() const noexcept { return next_; }

  /// Signs with the next unused one-time key; throws UsageError when
  /// exhausted.
  [[nodiscard]] MerkleSignature sign(const Digest& message);

 private:
  std::vector<LamportKeyPair> keys_;
  MerkleTree tree_;
  std::size_t next_ = 0;
};

/// Verifies a Merkle signature against the signer's public root.
[[nodiscard]] bool merkle_verify(const Digest& root, const Digest& message,
                                 const MerkleSignature& sig);

/// Wire encoding (used by Dolev-Strong message relaying).
[[nodiscard]] Bytes encode_merkle_signature(const MerkleSignature& sig);
[[nodiscard]] std::optional<MerkleSignature> decode_merkle_signature(ByteSpan data);

}  // namespace simulcast::crypto
