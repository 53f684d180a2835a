#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace simulcast::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  EXPECT_EQ(to_hex(digest_bytes(HmacSha256(key).mac(data.data(), data.size()))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const std::string s = "what do ya want for nothing?";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(to_hex(digest_bytes(HmacSha256(key).mac(data.data(), data.size()))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string s = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(to_hex(digest_bytes(HmacSha256(key).mac(data.data(), data.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
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
