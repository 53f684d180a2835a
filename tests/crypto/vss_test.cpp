#include "crypto/vss.h"

#include <gtest/gtest.h>

#include "crypto/modmath.h"

namespace simulcast::crypto {
namespace {

// The share checks spelled out on the reference kernels mulmod and powmod:
// g^y == prod_j A_j^{x^j} (Feldman) and g^v h^b == prod_j C_j^{x^j}
// (Pedersen), with the product evaluated by Horner in the exponent.
std::uint64_t reference_rhs(const SchnorrGroup& g, const std::vector<std::uint64_t>& c,
                            std::uint64_t x) {
  std::uint64_t rhs = 1;
  for (std::size_t j = c.size(); j-- > 0;)
    rhs = mulmod(powmod(rhs, x % g.q(), g.p()), c[j] % g.p(), g.p());
  return rhs;
}

bool reference_feldman_verify(const SchnorrGroup& g, const FeldmanCommitments& c,
                              const Share<Zq>& share) {
  if (c.coefficients.empty() || share.y.modulus() != g.q()) return false;
  return powmod(g.g(), share.y.value(), g.p()) == reference_rhs(g, c.coefficients, share.x);
}

bool reference_pedersen_verify(const SchnorrGroup& g, const std::vector<std::uint64_t>& c,
                               const PedersenShare& share) {
  if (c.empty() || share.x == 0) return false;
  if (!share.value.valid() || share.value.modulus() != g.q()) return false;
  if (!share.blinding.valid() || share.blinding.modulus() != g.q()) return false;
  const std::uint64_t lhs = mulmod(powmod(g.g(), share.value.value(), g.p()),
                                   powmod(g.h(), share.blinding.value(), g.p()), g.p());
  return lhs == reference_rhs(g, c, share.x);
}

// Evaluation points that reduce to 0 or 1 mod q, or wrap the 64-bit range.
std::vector<std::uint64_t> edge_points(const SchnorrGroup& g) {
  return {0, g.q(), g.q() + 1, ~std::uint64_t{0}};
}

// Coefficient vectors derived from `c`: as dealt, and with each entry in turn
// replaced by an unreduced (>= p) or out-of-group value.
std::vector<std::vector<std::uint64_t>> commitment_variants(const SchnorrGroup& g,
                                                            const std::vector<std::uint64_t>& c) {
  std::vector<std::vector<std::uint64_t>> out = {c};
  for (std::size_t j = 0; j < c.size(); ++j) {
    for (const std::uint64_t v : {c[j] + g.p(), g.p(), std::uint64_t{0}, ~std::uint64_t{0}}) {
      out.push_back(c);
      out.back()[j] = v;
    }
  }
  return out;
}

class FeldmanTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::standard();
  FeldmanVss vss_{group_};
  HmacDrbg drbg_{1, "vss-test"};
  Zq secret_{424242, group_.q()};
};

TEST_F(FeldmanTest, DealVerifiesAllShares) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  ASSERT_EQ(deal.shares.size(), 5u);
  EXPECT_TRUE(vss_.verify_commitments(deal.commitments, 2));
  for (const auto& share : deal.shares)
    EXPECT_TRUE(vss_.verify_share(deal.commitments, share)) << "share " << share.x;
}

TEST_F(FeldmanTest, TamperedShareRejected) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  Share<Zq> bad = deal.shares[0];
  bad.y = bad.y + Zq(1, group_.q());
  EXPECT_FALSE(vss_.verify_share(deal.commitments, bad));
}

TEST_F(FeldmanTest, ShareAtWrongPointRejected) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  Share<Zq> moved = deal.shares[0];
  moved.x = deal.shares[1].x;
  EXPECT_FALSE(vss_.verify_share(deal.commitments, moved));
}

TEST_F(FeldmanTest, ReconstructFromSubset) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  const std::vector<Share<Zq>> subset = {deal.shares[0], deal.shares[2], deal.shares[4]};
  EXPECT_EQ(vss_.reconstruct(subset), secret_);
}

TEST_F(FeldmanTest, CommittedPublicValueIsGToSecret) {
  const FeldmanDeal deal = vss_.deal(secret_, 3, 6, drbg_);
  EXPECT_EQ(vss_.committed_public_value(deal.commitments), group_.exp_g(secret_));
}

TEST_F(FeldmanTest, CommitmentCountChecked) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 3));
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 1));
}

TEST_F(FeldmanTest, NonSubgroupCommitmentRejected) {
  FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  // Replace a coefficient with a quadratic non-residue.
  std::uint64_t bad = 2;
  while (group_.is_element(bad)) ++bad;
  deal.commitments.coefficients[1] = bad;
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 2));
}

TEST_F(FeldmanTest, WrongFieldSecretThrows) {
  EXPECT_THROW(vss_.deal(Zq(5, 101), 2, 5, drbg_), UsageError);
}

TEST_F(FeldmanTest, ConsistencyAcrossDistinctDeals) {
  // Two deals of the same secret must still verify independently (fresh
  // randomness, fresh commitments).
  const FeldmanDeal d1 = vss_.deal(secret_, 2, 5, drbg_);
  const FeldmanDeal d2 = vss_.deal(secret_, 2, 5, drbg_);
  EXPECT_NE(d1.commitments.coefficients[1], d2.commitments.coefficients[1]);
  EXPECT_FALSE(vss_.verify_share(d1.commitments, d2.shares[0]) &&
               vss_.verify_share(d1.commitments, d2.shares[1]) &&
               vss_.verify_share(d1.commitments, d2.shares[2]));
}

TEST_F(FeldmanTest, WireEncodingRoundTrip) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  const Bytes enc = encode_feldman_commitments(deal.commitments);
  const FeldmanCommitments dec = decode_feldman_commitments(enc);
  EXPECT_EQ(dec.coefficients, deal.commitments.coefficients);

  const Bytes senc = encode_share(deal.shares[3]);
  const Share<Zq> sdec = decode_share(senc, group_.q());
  EXPECT_EQ(sdec.x, deal.shares[3].x);
  EXPECT_EQ(sdec.y, deal.shares[3].y);
}

TEST_F(FeldmanTest, OversizedCommitmentDecodingRejected) {
  ByteWriter w;
  w.u32(100000);
  EXPECT_THROW(decode_feldman_commitments(w.data()), ProtocolError);
}

TEST_F(FeldmanTest, VerifyShareMatchesReferenceFormula) {
  std::size_t accepted = 0;
  for (const std::size_t t : {0u, 1u, 3u}) {
    const FeldmanDeal deal = vss_.deal(secret_, t, 5, drbg_);
    for (const auto& coefficients : commitment_variants(group_, deal.commitments.coefficients)) {
      const FeldmanCommitments c{coefficients};
      for (const Share<Zq>& honest : deal.shares) {
        std::vector<Share<Zq>> cases = {honest};
        cases.push_back({honest.x, honest.y + Zq(1, group_.q())});
        for (const std::uint64_t x : edge_points(group_)) cases.push_back({x, honest.y});
        for (const Share<Zq>& share : cases) {
          const bool ok = vss_.verify_share(c, share);
          EXPECT_EQ(ok, reference_feldman_verify(group_, c, share))
              << "t=" << t << " x=" << share.x << " y=" << share.y.value();
          accepted += ok ? 1 : 0;
        }
      }
    }
  }
  // Honest shares on the dealt (and on the p-shifted) commitments verify.
  EXPECT_GT(accepted, 15u);
}

TEST_F(FeldmanTest, ThresholdPropertyAcrossParameters) {
  for (std::size_t n : {3u, 5u, 9u}) {
    for (std::size_t t = 1; t < n; ++t) {
      const Zq s(1000 + n * 10 + t, group_.q());
      const FeldmanDeal deal = vss_.deal(s, t, n, drbg_);
      std::vector<Share<Zq>> subset(deal.shares.begin(),
                                    deal.shares.begin() + static_cast<std::ptrdiff_t>(t + 1));
      EXPECT_EQ(vss_.reconstruct(subset), s) << "n=" << n << " t=" << t;
    }
  }
}

class PedersenVssTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::standard();
  PedersenVss vss_{group_};
  HmacDrbg drbg_{2, "pedersen-vss-test"};
};

TEST_F(PedersenVssTest, VerifyShareMatchesReferenceFormula) {
  std::size_t accepted = 0;
  for (const std::size_t t : {0u, 1u, 3u}) {
    const PedersenDeal deal = vss_.deal(Zq(t + 1, group_.q()), t, 5, drbg_);
    for (const auto& c : commitment_variants(group_, deal.commitments)) {
      for (const PedersenShare& honest : deal.shares) {
        std::vector<PedersenShare> cases = {honest};
        cases.push_back({honest.x, honest.value + Zq(1, group_.q()), honest.blinding});
        cases.push_back({honest.x, honest.value, honest.blinding + Zq(1, group_.q())});
        for (const std::uint64_t x : edge_points(group_))
          cases.push_back({x, honest.value, honest.blinding});
        for (const PedersenShare& share : cases) {
          const bool ok = vss_.verify_share(c, share);
          EXPECT_EQ(ok, reference_pedersen_verify(group_, c, share))
              << "t=" << t << " x=" << share.x << " value=" << share.value.value()
              << " blinding=" << share.blinding.value();
          accepted += ok ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(accepted, 15u);
}

TEST_F(PedersenVssTest, DealCarriesBlindingConstant) {
  // deal.blinding is f'(0): Lagrange at 0 over any t+1 dealt blinding
  // coordinates gives it back, and with the secret it opens C_0.
  for (const std::size_t t : {0u, 1u, 3u}) {
    const Zq secret(t, group_.q());
    const PedersenDeal deal = vss_.deal(secret, t, 7, drbg_);
    for (std::size_t first = 0; first + t < deal.shares.size(); ++first) {
      std::vector<Share<Zq>> coordinates;
      for (std::size_t i = first; i <= first + t; ++i)
        coordinates.push_back({deal.shares[i].x, deal.shares[i].blinding});
      EXPECT_EQ(shamir_reconstruct(coordinates), deal.blinding) << "t=" << t << " first=" << first;
    }
    EXPECT_EQ(group_.exp_gh(secret, deal.blinding), deal.commitments.front()) << "t=" << t;
  }
}

// The share payload's bytes, pinned: x, value and blinding as three
// little-endian u64s.  Decoding reads the share in place from a nested
// field, as the VSS receivers do with a justify or reveal message.
TEST(PedersenCodec, PayloadBytesArePinned) {
  constexpr std::uint64_t q = 1000003;
  const PedersenShare share{2, Zq{123456789, q}, Zq{987654, q}};
  const Bytes payload = encode_pedersen_share(share);
  EXPECT_EQ(to_hex(payload), "0200000000000000e4f606000000000006120f0000000000");

  ByteWriter w;
  w.u64(1);  // the complainer
  w.bytes(payload);
  const Bytes justify = w.take();
  ByteReader r(justify);
  EXPECT_EQ(r.u64(), 1u);
  const PedersenShare back = decode_pedersen_share(r.field(), q);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.x, share.x);
  EXPECT_EQ(back.value, share.value);
  EXPECT_EQ(back.blinding, share.blinding);
}

}  // namespace
}  // namespace simulcast::crypto
