#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace simulcast::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, data))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const std::string s = "what do ya want for nothing?";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, data))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string s = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, data))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 5869 test vector (case 1).
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const std::string info(info_bytes.begin(), info_bytes.end());
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, LengthLimit) {
  EXPECT_THROW(hkdf({}, {1}, "x", 255 * 32 + 1), UsageError);
  EXPECT_EQ(hkdf({}, {1}, "x", 0).size(), 0u);
  EXPECT_EQ(hkdf({}, {1}, "x", 100).size(), 100u);
}

TEST(HmacDrbg, DeterministicForSeed) {
  HmacDrbg a(42, "test");
  HmacDrbg b(42, "test");
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  HmacDrbg a(42, "alpha");
  HmacDrbg b(42, "beta");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SeedSeparatesStreams) {
  HmacDrbg a(1, "x");
  HmacDrbg b(2, "x");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SequentialCallsDiffer) {
  HmacDrbg d(7, "seq");
  EXPECT_NE(d.generate(32), d.generate(32));
}

TEST(HmacDrbg, BelowInRangeAndUniformish) {
  HmacDrbg d(9, "range");
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = d.below(5);
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_GT(c, 800);
  EXPECT_THROW((void)d.below(0), UsageError);
}

TEST(HmacDrbg, GenerateZeroBytes) {
  HmacDrbg d(5, "zero");
  EXPECT_TRUE(d.generate(0).empty());
}

}  // namespace
}  // namespace simulcast::crypto
