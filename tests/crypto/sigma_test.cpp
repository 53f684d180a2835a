#include "crypto/sigma.h"

#include <gtest/gtest.h>

#include "crypto/modmath.h"

namespace simulcast::crypto {
namespace {

class SigmaTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::standard();
  HmacDrbg drbg_{1, "sigma-test"};

  std::uint64_t pedersen(const Zq& m, const Zq& r) {
    return group_.exp_gh(m, r);
  }
};

TEST_F(SigmaTest, HonestProofVerifies) {
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const std::uint64_t statement = pedersen(m, r);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const Zq challenge = group_.sample_exponent(drbg_);
  const SigmaResponse resp = sigma_respond(commit, challenge, m, r);
  EXPECT_TRUE(sigma_verify(group_, statement, challenge, resp));
}

TEST_F(SigmaTest, WrongWitnessFails) {
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const std::uint64_t statement = pedersen(m, r);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const Zq challenge{12345, group_.q()};
  const SigmaResponse resp = sigma_respond(commit, challenge, Zq{0, group_.q()}, r);
  EXPECT_FALSE(sigma_verify(group_, statement, challenge, resp));
}

TEST_F(SigmaTest, WrongChallengeFails) {
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const std::uint64_t statement = pedersen(m, r);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const SigmaResponse resp = sigma_respond(commit, Zq{1, group_.q()}, m, r);
  EXPECT_FALSE(sigma_verify(group_, statement, Zq{2, group_.q()}, resp));
}

TEST_F(SigmaTest, StatementMismatchFails) {
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const Zq challenge{7, group_.q()};
  const SigmaResponse resp = sigma_respond(commit, challenge, m, r);
  const std::uint64_t other = pedersen(Zq{0, group_.q()}, r);
  EXPECT_FALSE(sigma_verify(group_, other, challenge, resp));
}

TEST_F(SigmaTest, ForgeryWithPresetChallengeVerifiesOnlyForThatChallenge) {
  // The textbook simulator: pick c, z1, z2 first, set A = g^z1 h^z2 C^-c.
  // It verifies for the preset c (honest-verifier ZK) but fails for any
  // other challenge - which is why the protocol fixes A before c is drawn.
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const std::uint64_t statement = pedersen(m, r);
  const Zq preset_c = group_.sample_exponent(drbg_);
  const Zq z1 = group_.sample_exponent(drbg_);
  const Zq z2 = group_.sample_exponent(drbg_);
  SigmaResponse forged;
  forged.z1 = z1;
  forged.z2 = z2;
  forged.a = group_.mul(pedersen(z1, z2), invmod(group_.exp(statement, preset_c), group_.p()));
  EXPECT_TRUE(sigma_verify(group_, statement, preset_c, forged));
  const Zq other_c = preset_c + Zq{1, group_.q()};
  EXPECT_FALSE(sigma_verify(group_, statement, other_c, forged));
}

TEST_F(SigmaTest, MalformedResponseRejected) {
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const std::uint64_t statement = pedersen(m, r);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const Zq challenge{9, group_.q()};
  SigmaResponse resp = sigma_respond(commit, challenge, m, r);
  // Non-subgroup A.
  SigmaResponse bad_a = resp;
  std::uint64_t non_element = 5;
  while (group_.is_element(non_element)) ++non_element;
  bad_a.a = non_element;
  EXPECT_FALSE(sigma_verify(group_, statement, challenge, bad_a));
  // Wrong-modulus responses.
  SigmaResponse bad_z = resp;
  bad_z.z1 = Zq{1, 101};
  EXPECT_FALSE(sigma_verify(group_, statement, challenge, bad_z));
  SigmaResponse invalid_z;
  invalid_z.a = resp.a;
  EXPECT_FALSE(sigma_verify(group_, statement, challenge, invalid_z));
}

TEST_F(SigmaTest, SpecialSoundnessExtractsWitness) {
  // Two accepting transcripts with the same A and distinct challenges
  // yield the witness: m = (z1 - z1') / (c - c').
  const Zq m{1, group_.q()};
  const Zq r = group_.sample_exponent(drbg_);
  const SigmaCommitment commit = sigma_commit(group_, drbg_);
  const Zq c1{100, group_.q()};
  const Zq c2{200, group_.q()};
  const SigmaResponse r1 = sigma_respond(commit, c1, m, r);
  const SigmaResponse r2 = sigma_respond(commit, c2, m, r);
  const Zq extracted = (r1.z1 - r2.z1) * (c1 - c2).inverse();
  EXPECT_EQ(extracted, m);
}

}  // namespace
}  // namespace simulcast::crypto
