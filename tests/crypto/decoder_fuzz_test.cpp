// Decoder robustness: every wire decoder must either parse or reject
// garbage cleanly (typed error or nullopt) - never crash, never accept
// trailing junk where it claims not to.
#include <gtest/gtest.h>

#include "base/error.h"
#include "broadcast/dolev_strong.h"
#include "crypto/lamport.h"
#include "crypto/vss.h"
#include "protocols/theta.h"
#include "stats/rng.h"

namespace simulcast::crypto {
namespace {

class DecoderFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  stats::Rng rng_{GetParam()};

  Bytes random_payload() { return rng_.bytes(rng_.below(128)); }
};

TEST_P(DecoderFuzzTest, GroupElementsDecoderNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    const Bytes payload = random_payload();
    try {
      const auto decoded = decode_group_elements(payload);
      // If it parsed, re-encoding must reproduce the payload exactly.
      EXPECT_EQ(encode_group_elements(decoded), payload);
    } catch (const Error&) {
      // Clean rejection.
    }
  }
}

TEST_P(DecoderFuzzTest, PedersenShareDecoderNeverCrashes) {
  const std::uint64_t q = SchnorrGroup::standard().q();
  for (int i = 0; i < 300; ++i) {
    const Bytes payload = random_payload();
    try {
      const PedersenShare share = decode_pedersen_share(payload, q);
      EXPECT_LT(share.value.value(), q);
      EXPECT_LT(share.blinding.value(), q);
    } catch (const Error&) {
    }
  }
}

TEST_P(DecoderFuzzTest, FeldmanCommitmentsDecoderNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    const Bytes payload = random_payload();
    try {
      (void)decode_feldman_commitments(payload);
    } catch (const Error&) {
    }
  }
}

// The Dolev-Strong relay payload (seq-broadcast-ds): a bit byte, a link
// count and that many (signer, Merkle signature) links, all adversary
// controlled.  Half the inputs are uniform garbage, half a header (bit byte
// 0..3, link count 0..2) with a short random tail, so the accepting path
// is reached too.
TEST_P(DecoderFuzzTest, SignatureChainDecoderNeverCrashes) {
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes payload;
    if (i % 2 == 0) {
      payload = random_payload();
    } else {
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(rng_.below(4)));
      w.u32(static_cast<std::uint32_t>(rng_.below(3)));
      payload = w.take();
      const Bytes tail = rng_.bytes(rng_.below(3) == 0 ? 0 : rng_.below(64));
      payload.insert(payload.end(), tail.begin(), tail.end());
    }
    const auto decoded = broadcast::decode_chain(payload);
    // If it parsed, re-encoding must reproduce the payload exactly.
    if (decoded.has_value()) {
      ++accepted;
      EXPECT_EQ(broadcast::encode_chain(decoded->bit, decoded->chain), payload);
    }
  }
  EXPECT_GT(accepted, 0);
}

// The Theta functionality's input payload (flawed-pi-g): two bytes, each
// 0 or 1.  Short payloads over a small alphabet hit every accept and
// reject branch.
TEST_P(DecoderFuzzTest, ThetaInputDecoderNeverCrashes) {
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes payload;
    if (i % 2 == 0) {
      payload = random_payload();
    } else {
      for (std::uint64_t k = rng_.below(4); k > 0; --k)
        payload.push_back(static_cast<std::uint8_t>(rng_.below(3)));
    }
    const auto decoded = protocols::decode_theta_input(payload);
    if (decoded.has_value()) {
      ++accepted;
      EXPECT_EQ(protocols::encode_theta_input(*decoded), payload);
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST_P(DecoderFuzzTest, MerkleSignatureDecoderNeverCrashes) {
  for (int i = 0; i < 100; ++i) {
    const Bytes payload = random_payload();
    const auto decoded = decode_merkle_signature(payload);
    // Random garbage essentially never forms a valid signature container.
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST_P(DecoderFuzzTest, TamperedValidEncodingsHandled) {
  // Start from valid encodings and flip random bytes: decoders must still
  // parse-or-reject cleanly, and signatures must not verify.
  HmacDrbg drbg(GetParam(), "tamper");
  MerkleSigner signer(drbg.generate(32), 2);
  const Digest msg = sha256("tamper-me");
  const Bytes valid = encode_merkle_signature(signer.sign(msg));
  for (int i = 0; i < 40; ++i) {
    Bytes tampered = valid;
    tampered[rng_.below(tampered.size())] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    const auto decoded = decode_merkle_signature(tampered);
    if (decoded.has_value()) {
      EXPECT_FALSE(merkle_verify(signer.public_root(), msg, *decoded)) << "iteration " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Values(1, 99, 2026));

}  // namespace
}  // namespace simulcast::crypto
