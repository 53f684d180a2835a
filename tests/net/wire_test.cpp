// Wire-format properties (net/wire.h): round-trip fidelity over random
// messages with shrinking reproducers, exact-size accounting, multi-frame
// streams, and the decoder's rejection of truncated or garbage input.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::net {
namespace {

constexpr std::uint64_t kMasterSeed = 0x51AC0C0DE;

/// Draws a random message: ids span normal parties and the special
/// destinations, tag and payload lengths cover empty through multi-KB.
sim::Message random_message(stats::Rng& rng) {
  sim::Message m;
  m.from = rng.below(64);
  switch (rng.below(4)) {
    case 0: m.to = sim::kBroadcast; break;
    case 1: m.to = sim::kFunctionality; break;
    default: m.to = rng.below(64); break;
  }
  m.round = rng.below(1u << 20);
  const std::size_t tag_len = rng.below(33);
  std::string tag;
  for (std::size_t i = 0; i < tag_len; ++i)
    tag.push_back(static_cast<char>(rng.below(256)));
  m.tag = sim::Tag(tag);
  const std::size_t payload_len = rng.below(4097);
  for (std::size_t i = 0; i < payload_len; ++i)
    m.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  return m;
}

bool messages_equal(const sim::Message& a, const sim::Message& b) {
  return a.from == b.from && a.to == b.to && a.round == b.round && a.tag == b.tag &&
         a.payload == b.payload;
}

/// "" on pass, one-line failure text otherwise.
std::string round_trip_check(const sim::Message& m) {
  Bytes buffer;
  encode_message(m, buffer);
  if (buffer.size() != encoded_size(m))
    return "encoded " + std::to_string(buffer.size()) + " bytes, encoded_size predicted " +
           std::to_string(encoded_size(m));
  sim::Message back;
  try {
    back = decode_message(buffer);
  } catch (const Error& e) {
    return std::string("decode threw: ") + e.what();
  }
  if (!messages_equal(m, back)) return "decoded message differs from the original";
  return "";
}

/// Greedy shrink: repeatedly halve the tag and payload while the check
/// still fails, so the reproducer names the smallest failing shape.
sim::Message shrink_failing(sim::Message m) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (const bool shrink_tag : {true, false}) {
      sim::Message candidate = m;
      if (shrink_tag) {
        if (candidate.tag.size() == 0) continue;
        std::string tag = candidate.tag.str();
        tag.resize(tag.size() / 2);
        candidate.tag = sim::Tag(tag);
      } else {
        if (candidate.payload.empty()) continue;
        candidate.payload.resize(candidate.payload.size() / 2);
      }
      if (!round_trip_check(candidate).empty()) {
        m = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return m;
}

TEST(Wire, RoundTripSeedSweep) {
  const stats::Rng master(kMasterSeed);
  for (std::size_t i = 0; i < 200; ++i) {
    stats::Rng rng = master.fork("wire-roundtrip", i);
    const sim::Message m = random_message(rng);
    const std::string failure = round_trip_check(m);
    if (!failure.empty()) {
      const sim::Message minimal = shrink_failing(m);
      std::ostringstream os;
      os << "wire round-trip failed: " << failure << "\n  reproducer: master_seed=0x" << std::hex
         << kMasterSeed << std::dec << " index=" << i << "\n  original: tag=" << m.tag.size()
         << "B payload=" << m.payload.size() << "B\n  minimal:  tag=" << minimal.tag.size()
         << "B payload=" << minimal.payload.size() << "B";
      ADD_FAILURE() << os.str();
      return;  // one reproducer is enough; later indices add only noise
    }
  }
}

TEST(Wire, EmptyAndBoundaryMessages) {
  // The degenerate shapes the sweep may miss at 200 draws.
  for (const sim::Message& m :
       {sim::Message{},                                           // all defaults
        sim::Message{0, sim::kBroadcast, 0, "", {}},              // empty tag + payload
        sim::Message{7, sim::kFunctionality, 3, "t", {0xFF}}}) {  // 1-byte fields
    EXPECT_EQ(round_trip_check(m), "");
  }
}

TEST(Wire, MultiFrameStreamDecodesInOrder) {
  const stats::Rng master(kMasterSeed);
  std::vector<sim::Message> sent;
  Bytes stream;
  ByteWriter writer(stream);
  for (std::size_t i = 0; i < 5; ++i) {
    stats::Rng rng = master.fork("wire-stream", i);
    sent.push_back(random_message(rng));
    write_message(writer, sent.back());
  }
  ByteReader reader(stream);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_FALSE(reader.done()) << "stream exhausted after " << i << " frames";
    EXPECT_TRUE(messages_equal(read_message(reader), sent[i])) << "frame " << i;
  }
  EXPECT_TRUE(reader.done());
}

TEST(Wire, EveryTruncationThrowsProtocolError) {
  stats::Rng rng = stats::Rng(kMasterSeed).fork("wire-truncate", 0);
  Bytes frame;
  encode_message(random_message(rng), frame);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    ByteReader reader(ByteSpan(frame).first(len));
    EXPECT_THROW((void)read_message(reader), ProtocolError) << "prefix length " << len;
  }
}

TEST(Wire, RejectsWrongVersion) {
  Bytes frame;
  encode_message(sim::Message{1, 2, 3, "tag", {4, 5}}, frame);
  frame[4] ^= 0xFF;  // the version byte follows the u32 length prefix
  EXPECT_THROW((void)decode_message(frame), ProtocolError);
}

TEST(Wire, RejectsSlackBytesInsideFrame) {
  Bytes frame;
  encode_message(sim::Message{1, 2, 3, "tag", {4, 5}}, frame);
  // Stretch the length prefix by one and append a smuggled byte: every
  // field still parses, but the frame no longer covers itself exactly.
  frame[0] += 1;
  frame.push_back(0xAA);
  EXPECT_THROW((void)decode_message(frame), ProtocolError);
}

TEST(Wire, RejectsFieldLengthOverrun) {
  Bytes frame;
  encode_message(sim::Message{1, 2, 3, "tag", {4, 5}}, frame);
  // tag_len sits after prefix(4) + version(1) + three u64s(24); inflating
  // it reaches past the frame end.
  frame[4 + 1 + 24] = 0xFF;
  EXPECT_THROW((void)decode_message(frame), ProtocolError);
}

TEST(Wire, RejectsTrailingGarbageAfterSingleFrame) {
  Bytes frame;
  encode_message(sim::Message{1, 2, 3, "tag", {4, 5}}, frame);
  frame.push_back(0x00);
  EXPECT_THROW((void)decode_message(frame), ProtocolError);
}

/// Chaos-layer contract (net/chaos.h): a single bit flip anywhere in a
/// frame — length prefix, version, every header field, tag, payload, the
/// CRC trailer itself — must surface as ProtocolError, and a flip anywhere
/// past the length prefix must be the CRC speaking (ChecksumError, checked
/// before any field parse) so resilient channels can catch exactly that
/// type and wait for a retransmit.  Exhaustive over every bit of each
/// swept frame; failures print a reproducer (seed, message index, bit).
TEST(Wire, EverySingleBitFlipThrowsProtocolError) {
  constexpr std::size_t kMessages = 12;
  for (std::size_t index = 0; index < kMessages; ++index) {
    stats::Rng rng = stats::Rng(kMasterSeed).fork("wire-bitflip", index);
    sim::Message m = random_message(rng);
    // Bound the shape so the exhaustive flip sweep stays cheap; the field
    // boundaries are identical at every size.
    if (m.payload.size() > 64) m.payload.resize(64);
    Bytes frame;
    encode_message(m, frame);
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (std::size_t bit = 0; bit < 8; ++bit) {
        Bytes flipped = frame;
        flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1u << bit));
        const char* outcome = nullptr;
        try {
          (void)decode_message(flipped);
          outcome = "decoded cleanly";
        } catch (const ChecksumError&) {
          // The expected voice for any flip the length prefix still frames.
        } catch (const ProtocolError&) {
          // A flip in the length prefix may instead mis-frame the buffer
          // (truncation / overrun / slack); that is only legitimate there.
          if (byte >= 4) outcome = "threw ProtocolError, not ChecksumError";
        } catch (const std::exception& e) {
          (void)e;
          outcome = "threw outside the ProtocolError family";
        }
        if (outcome != nullptr) {
          ADD_FAILURE() << "bit flip survived: " << outcome
                        << "\n  reproducer: master_seed=0x" << std::hex << kMasterSeed
                        << std::dec << " fork=(\"wire-bitflip\", " << index << ") byte=" << byte
                        << " bit=" << bit << " frame_size=" << frame.size();
          return;  // one reproducer is enough
        }
      }
    }
  }
}

// The frame and batch layouts, pinned byte for byte: every backend and
// every version of the codec must put exactly these bytes on the wire.
TEST(Wire, FrameAndBatchBytesArePinned) {
  const sim::Message m{3, sim::kBroadcast, 5, "vss-justify", {0x01, 0x02, 0xfe}};
  const std::string frame_hex =
      "33000000020300000000000000ffffffffffffffff05000000000000000b0000007673732d6a7573746966"
      "79030000000102fe89ea2a0c";
  Bytes frame;
  encode_message(m, frame);
  EXPECT_EQ(to_hex(frame), frame_hex);
  EXPECT_EQ(frame.size(), encoded_size(m));

  ByteWriter w;
  w.u64(9);
  write_batch(w, std::vector<sim::Message>{m, sim::Message{0, 2, 1, "t", {}}});
  // u64 9 | u32 count 2 | u32 blob length 0x61 | the two frames
  EXPECT_EQ(to_hex(w.data()), "0900000000000000" "02000000" "61000000" + frame_hex +
                                  "2600000002000000000000000002000000000000000100000000000000"
                                  "010000007400000000a233fe90");
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), 9u);
  std::vector<sim::Message> batch;
  read_batch(r, batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(messages_equal(batch[0], m));
}

/// A CRC-sealed field over `contents`, length prefix dropped.
Bytes crc_field(const Bytes& contents) {
  ByteWriter w;
  const std::size_t at = w.begin_field();
  w.raw(contents);
  end_crc_field(w, at);
  return Bytes(w.data().begin() + 4, w.data().end());
}

TEST(Wire, Crc32cKnownVectors) {
  // The canonical CRC32C check string (RFC 3720 appendix B.4): its trailer
  // is 0xE3069283, little-endian like every integer on the wire.
  const Bytes digits = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const Bytes sealed = crc_field(digits);
  EXPECT_EQ(to_hex(sealed), to_hex(digits) + "839206e3");
  EXPECT_EQ(to_hex(crc_field({})), "00000000");
  const std::optional<ByteSpan> contents = crc_field_contents(sealed);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(Bytes(contents->begin(), contents->end()), digits);
  // Any flipped bit, or a field shorter than its trailer, fails the check.
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    Bytes flipped = sealed;
    flipped[byte] ^= 0x10;
    EXPECT_FALSE(crc_field_contents(flipped).has_value()) << "byte " << byte;
  }
  EXPECT_FALSE(crc_field_contents(Bytes{0x00, 0x00, 0x00}).has_value());
}

}  // namespace
}  // namespace simulcast::net
