#include "base/bytes.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace simulcast {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
}

TEST(ByteWriter, ScalarsLittleEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u32(0x04030201);
  w.u64(0x0807060504030201ULL);
  const Bytes expected = {0x01, 0x01, 0x02, 0x03, 0x04, 0x01, 0x02,
                          0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(w.data(), expected);
}

TEST(ByteWriterReader, RoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.u64(0xdeadbeefcafef00dULL);
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  const Bytes buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, TruncationThrows) {
  const Bytes buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_THROW((void)r.u32(), ProtocolError);
}

TEST(ByteReader, TruncatedLengthPrefixThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow, none do
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW((void)r.bytes(), ProtocolError);
}

// A reader over one field ends where the field's length prefix says, even
// when more bytes follow it in the outer buffer.
TEST(ByteReader, NestedFieldCannotReadPastItsPrefix) {
  ByteWriter w;
  w.u32(4);
  w.u32(0x11223344);   // the field: exactly four bytes
  w.u64(0xAAAAAAAAAAAAAAAAULL);  // the next field of the outer buffer
  const Bytes buf = w.take();

  ByteReader outer(buf);
  const ByteSpan field = outer.field();
  EXPECT_EQ(field.data(), buf.data() + 4);  // borrowed, not copied
  ByteReader inner(field);
  EXPECT_EQ(inner.u32(), 0x11223344u);
  EXPECT_TRUE(inner.done());
  EXPECT_THROW((void)inner.u8(), ProtocolError);
  ByteReader wide(field);
  EXPECT_THROW((void)wide.u64(), ProtocolError);  // would reach the next field
  EXPECT_EQ(outer.u64(), 0xAAAAAAAAAAAAAAAAULL);
  EXPECT_TRUE(outer.done());
}

TEST(ByteWriter, AppendsToACallerBuffer) {
  Bytes out = {0xEE};
  {
    ByteWriter w(out);
    w.u8(1);
    w.str("ab");
  }
  EXPECT_EQ(out, (Bytes{0xEE, 0x01, 0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  // An adopted buffer is cleared first and handed back by take().
  Bytes pooled = {0xEE, 0xEE};
  ByteWriter owned(std::move(pooled));
  owned.u8(2);
  EXPECT_EQ(owned.take(), (Bytes{0x02}));
}

// begin_field/end_field write the same bytes as bytes() over the same
// content, so a field can be built in place.
TEST(ByteWriter, FieldBuiltInPlaceMatchesBytes) {
  ByteWriter in_place;
  in_place.u8(9);
  const std::size_t at = in_place.begin_field();
  in_place.u64(7);
  in_place.raw(Bytes{1, 2});
  in_place.end_field(at);

  ByteWriter inner;
  inner.u64(7);
  inner.raw(Bytes{1, 2});
  ByteWriter whole;
  whole.u8(9);
  whole.bytes(inner.data());
  EXPECT_EQ(in_place.data(), whole.data());
}

TEST(ByteWriter, LengthPrefixDisambiguates) {
  // commit("ab","c") vs commit("a","bc") must serialize differently.
  ByteWriter w1;
  w1.str("ab");
  w1.str("c");
  ByteWriter w2;
  w2.str("a");
  w2.str("bc");
  EXPECT_NE(w1.data(), w2.data());
}

}  // namespace
}  // namespace simulcast
