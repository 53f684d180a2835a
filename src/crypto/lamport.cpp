#include "crypto/lamport.h"

#include "base/error.h"
#include "crypto/hmac.h"

namespace simulcast::crypto {

namespace {

Bytes chain_secret(const Bytes& seed, std::size_t chain) {
  ByteWriter w;
  w.str("simulcast/lamport-sk/v1");
  w.bytes(seed);
  w.u32(static_cast<std::uint32_t>(chain));
  return digest_bytes(sha256(w.data()));
}

}  // namespace

LamportKeyPair lamport_keygen(const Bytes& seed) {
  if (seed.size() != 32) throw UsageError("lamport_keygen: seed must be 32 bytes");
  LamportKeyPair kp;
  kp.seed = seed;
  kp.pk.reserve(kLamportChains);
  for (std::size_t chain = 0; chain < kLamportChains; ++chain)
    kp.pk.push_back(sha256(chain_secret(seed, chain)));
  return kp;
}

LamportSignature lamport_sign(const LamportKeyPair& key, const Digest& message) {
  LamportSignature sig;
  sig.preimages.reserve(256);
  for (std::size_t bit = 0; bit < 256; ++bit) {
    const bool b = (message[bit / 8] >> (7 - bit % 8)) & 1;
    const std::size_t chain = 2 * bit + (b ? 1 : 0);
    sig.preimages.push_back(chain_secret(key.seed, chain));
  }
  return sig;
}

bool lamport_verify(const std::vector<Digest>& pk, const Digest& message,
                    const LamportSignature& sig) {
  if (pk.size() != kLamportChains || sig.preimages.size() != 256) return false;
  for (std::size_t bit = 0; bit < 256; ++bit) {
    const bool b = (message[bit / 8] >> (7 - bit % 8)) & 1;
    const std::size_t chain = 2 * bit + (b ? 1 : 0);
    if (!digest_equal(sha256(sig.preimages[bit]), pk[chain])) return false;
  }
  return true;
}

Bytes lamport_pk_leaf(const std::vector<Digest>& pk) {
  ByteWriter w;
  w.str("simulcast/lamport-pk/v1");
  for (const Digest& d : pk) w.bytes(digest_bytes(d));
  return digest_bytes(sha256(w.data()));
}

MerkleSigner::MerkleSigner(const Bytes& seed, std::size_t height)
    : keys_([&] {
        if (height > 12) throw UsageError("MerkleSigner: height > 12");
        std::vector<LamportKeyPair> keys;
        const std::size_t count = std::size_t{1} << height;
        keys.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          ByteWriter w;
          w.str("simulcast/merkle-signer-seed/v1");
          w.bytes(seed);
          w.u32(static_cast<std::uint32_t>(i));
          keys.push_back(lamport_keygen(digest_bytes(sha256(w.data()))));
        }
        return keys;
      }()),
      tree_([&] {
        std::vector<Bytes> leaves;
        leaves.reserve(keys_.size());
        for (const LamportKeyPair& kp : keys_) leaves.push_back(lamport_pk_leaf(kp.pk));
        return leaves;
      }()) {}

MerkleSignature MerkleSigner::sign(const Digest& message) {
  if (next_ >= keys_.size()) throw UsageError("MerkleSigner: one-time keys exhausted");
  const std::size_t index = next_++;
  MerkleSignature sig;
  sig.key_index = static_cast<std::uint32_t>(index);
  sig.one_time_pk = keys_[index].pk;
  sig.one_time_sig = lamport_sign(keys_[index], message);
  sig.path = tree_.path(index);
  return sig;
}

bool merkle_verify(const Digest& root, const Digest& message, const MerkleSignature& sig) {
  if (!lamport_verify(sig.one_time_pk, message, sig.one_time_sig)) return false;
  if (sig.path.leaf_index != sig.key_index) return false;
  return MerkleTree::verify(root, lamport_pk_leaf(sig.one_time_pk), sig.path);
}

Bytes encode_merkle_signature(const MerkleSignature& sig) {
  ByteWriter w;
  w.u32(sig.key_index);
  w.u32(static_cast<std::uint32_t>(sig.one_time_pk.size()));
  for (const Digest& d : sig.one_time_pk) w.bytes(digest_bytes(d));
  w.u32(static_cast<std::uint32_t>(sig.one_time_sig.preimages.size()));
  for (const Bytes& p : sig.one_time_sig.preimages) w.bytes(p);
  w.u64(sig.path.leaf_index);
  w.u32(static_cast<std::uint32_t>(sig.path.siblings.size()));
  for (const Digest& d : sig.path.siblings) w.bytes(digest_bytes(d));
  return w.take();
}

std::optional<MerkleSignature> decode_merkle_signature(ByteSpan data) {
  try {
    ByteReader r(data);
    MerkleSignature sig;
    sig.key_index = r.u32();
    const std::uint32_t pk_count = r.u32();
    if (pk_count != kLamportChains) return std::nullopt;
    sig.one_time_pk.reserve(pk_count);
    for (std::uint32_t i = 0; i < pk_count; ++i) {
      const ByteSpan b = r.field();
      if (b.size() != kSha256DigestSize) return std::nullopt;
      Digest d{};
      std::copy(b.begin(), b.end(), d.begin());
      sig.one_time_pk.push_back(d);
    }
    const std::uint32_t sig_count = r.u32();
    if (sig_count != 256) return std::nullopt;
    sig.one_time_sig.preimages.reserve(sig_count);
    for (std::uint32_t i = 0; i < sig_count; ++i) sig.one_time_sig.preimages.push_back(r.bytes());
    sig.path.leaf_index = r.u64();
    const std::uint32_t path_count = r.u32();
    if (path_count > 64) return std::nullopt;
    sig.path.siblings.reserve(path_count);
    for (std::uint32_t i = 0; i < path_count; ++i) {
      const ByteSpan b = r.field();
      if (b.size() != kSha256DigestSize) return std::nullopt;
      Digest d{};
      std::copy(b.begin(), b.end(), d.begin());
      sig.path.siblings.push_back(d);
    }
    if (!r.done()) return std::nullopt;
    return sig;
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace simulcast::crypto
