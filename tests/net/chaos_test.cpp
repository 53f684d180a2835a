// The chaos layer (net/chaos.h): spec grammar round-trips and rejects,
// engine determinism (verdict streams are pure functions of seed, spec
// and channel personalization), the shared net::Link recovery protocol
// behind WorkerChannel on both an AF_UNIX socketpair and a loopback TCP
// pair (recovery under loss/dup/reorder/corruption, budget exhaustion →
// Status::kBudget, frame-cap error context), and the socket backend's
// chaos recovery on the same Link (recoverable chaos is invisible at
// collect; frame fates are reproducible; a spent budget fails the
// execution at the first RTO with an annotated error).
#include "net/chaos.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "base/error.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "net/worker.h"
#include "stats/rng.h"

namespace simulcast::net {
namespace {

constexpr std::uint64_t kMasterSeed = 0xC4A05;

// ----------------------------------------------------- spec grammar ----

TEST(ChaosSpec, DefaultIsInert) {
  const ChaosSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_EQ(spec.summary(), "");
  EXPECT_TRUE(spec.applies_to(0));
  EXPECT_TRUE(spec.applies_to(17));
  const ChaosSpec parsed = parse_chaos_spec("");
  EXPECT_FALSE(parsed.enabled());
  EXPECT_EQ(parsed.budget, ChaosSpec::kDefaultBudget);
}

TEST(ChaosSpec, SummaryIsCanonicalAndRoundTrips) {
  // Keys out of canonical order, defaults spelled explicitly: the summary
  // normalizes both, and parse(summary()) is a fixed point.
  const char* const specs[] = {
      "loss:0.25",
      "corrupt:1e-06,loss:0.01,delay:pareto:2:20",
      "dup:0.5,reorder:0.1:4",
      "delay:fixed:3",
      "delay:uniform:0.5:2.5,loss:1",
      "budget:0,loss:1,party:2,after:3",
      "loss:0.25,budget:64",  // explicit default budget is elided
  };
  for (const char* text : specs) {
    const ChaosSpec spec = parse_chaos_spec(text);
    ASSERT_TRUE(spec.enabled()) << text;
    const std::string canonical = spec.summary();
    EXPECT_EQ(parse_chaos_spec(canonical).summary(), canonical) << text;
  }
  EXPECT_EQ(parse_chaos_spec("loss:0.25,budget:64").summary(), "loss:0.25");
  EXPECT_EQ(parse_chaos_spec("after:3,loss:1,party:2,budget:0").summary(),
            "loss:1,budget:0,party:2,after:3");
}

TEST(ChaosSpec, ParseRejectsMalformedSpecs) {
  const char* const rejects[] = {
      "turbulence:0.5",          // unknown key
      "loss",                    // missing probability
      "loss:0.1:2",              // extra field
      "loss:1.5",                // probability out of range
      "loss:-0.1",               // negative probability
      "corrupt:wat",             // not a number
      "delay:gauss:1",           // unknown delay kind
      "delay:fixed",             // missing ms
      "delay:fixed:-1",          // negative delay
      "delay:fixed:999999",      // above kMaxDelayMs
      "delay:uniform:5:2",       // lo > hi
      "delay:pareto:2:0",        // shape must be > 0
      "reorder:0.5:0",           // window must be >= 1
      "budget:3",                // shapes chaos but sets no wire condition
      "party:1,after:2",         // likewise
      "loss:0.1,,dup:0.1",       // empty item
      // Numbers are strict (base/parse.h): no sign, whitespace, hex float,
      // overflow, NaN or infinity.
      "loss:+0.5",
      "loss: 0.5",
      "loss:0x1p-2",
      "loss:nan",
      "delay:pareto:1:inf",
      "loss:0.5,party: 1",
      "loss:0.5,party:+1",
      "loss:0.5,after:-0",
      "loss:0.5,budget:99999999999999999999999",
  };
  for (const char* text : rejects)
    EXPECT_THROW((void)parse_chaos_spec(text), UsageError) << text;
}

TEST(ChaosSpec, PartyTargeting) {
  const ChaosSpec spec = parse_chaos_spec("loss:0.5,party:2");
  EXPECT_TRUE(spec.applies_to(2));
  EXPECT_FALSE(spec.applies_to(0));
  EXPECT_FALSE(spec.applies_to(3));
}

// ------------------------------------------------ engine determinism ----

bool verdicts_equal(const Chaos::Verdict& a, const Chaos::Verdict& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate && a.hold == b.hold &&
         a.delay == b.delay && a.corrupt == b.corrupt;
}

TEST(ChaosEngine, SameSeedSpecChannelSameStream) {
  const ChaosSpec spec =
      parse_chaos_spec("delay:uniform:0:2,loss:0.2,dup:0.1,reorder:0.1:3,corrupt:0.01");
  Chaos a(spec, 42, "socket:0");
  Chaos b(spec, 42, "socket:0");
  for (std::size_t i = 0; i < 500; ++i) {
    const Chaos::Verdict va = a.next_verdict();
    const Chaos::Verdict vb = b.next_verdict();
    ASSERT_TRUE(verdicts_equal(va, vb)) << "frame " << i;
    if (va.corrupt) {
      Bytes ba(64, 0xAB), bb(64, 0xAB);
      a.corrupt_bytes(ba.data(), ba.size());
      b.corrupt_bytes(bb.data(), bb.size());
      ASSERT_EQ(ba, bb) << "frame " << i;
    }
  }
}

TEST(ChaosEngine, DistinctChannelsDrawIndependentStreams) {
  const ChaosSpec spec = parse_chaos_spec("loss:0.5");
  Chaos a(spec, 42, "socket:0");
  Chaos b(spec, 42, "socket:1");
  Chaos c(spec, 43, "socket:0");
  bool differs_by_channel = false;
  bool differs_by_seed = false;
  for (std::size_t i = 0; i < 200; ++i) {
    const bool da = a.next_verdict().drop;
    differs_by_channel = differs_by_channel || da != b.next_verdict().drop;
    differs_by_seed = differs_by_seed || da != c.next_verdict().drop;
  }
  EXPECT_TRUE(differs_by_channel);
  EXPECT_TRUE(differs_by_seed);
}

TEST(ChaosEngine, WarmupReturnsCleanVerdictsButConsumesDraws) {
  const ChaosSpec hot = parse_chaos_spec("loss:0.5,dup:0.3");
  const ChaosSpec warm = parse_chaos_spec("loss:0.5,dup:0.3,after:10");
  Chaos a(hot, 7, "ch");
  Chaos b(warm, 7, "ch");
  for (std::size_t i = 0; i < 10; ++i) {
    const Chaos::Verdict va = a.next_verdict();
    const Chaos::Verdict vb = b.next_verdict();
    (void)va;
    EXPECT_FALSE(vb.drop) << "warmup frame " << i;
    EXPECT_FALSE(vb.duplicate) << "warmup frame " << i;
  }
  // Past the warmup the streams realign exactly: warmup consumed its
  // draws, so frame fates stay pure functions of (seed, spec, index).
  for (std::size_t i = 10; i < 200; ++i)
    ASSERT_TRUE(verdicts_equal(a.next_verdict(), b.next_verdict())) << "frame " << i;
}

TEST(ChaosEngine, CertainLossDropsEverythingAfterWarmup) {
  Chaos chaos(parse_chaos_spec("loss:1,after:2"), 9, "ch");
  EXPECT_FALSE(chaos.next_verdict().drop);
  EXPECT_FALSE(chaos.next_verdict().drop);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_TRUE(chaos.next_verdict().drop);
}

TEST(ChaosEngine, DelayIsCappedAtTheValidityBound) {
  // Pareto with a tiny shape has an enormous tail; the cap keeps every
  // draw inside [0, kMaxDelayMs].
  Chaos chaos(parse_chaos_spec("delay:pareto:100:0.1"), 11, "ch");
  for (std::size_t i = 0; i < 300; ++i) {
    const auto delay = chaos.next_verdict().delay;
    EXPECT_GE(delay.count(), 0);
    EXPECT_LE(delay.count(),
              static_cast<std::int64_t>(ChaosSpec::kMaxDelayMs * 1000.0));
  }
}

// -------------------------------------------- resilient WorkerChannel ----

/// The two stream kinds a Link runs on.  Each ResilientChannel test runs
/// over both: the recovery protocol must not care which one it is given.
enum class FdKind { kUnix, kTcp };
constexpr FdKind kFdKinds[] = {FdKind::kUnix, FdKind::kTcp};

const char* fd_kind_name(FdKind kind) {
  return kind == FdKind::kUnix ? "AF_UNIX socketpair" : "loopback TCP pair";
}

/// A connected stream pair of `kind`.
std::pair<int, int> stream_pair(FdKind kind) {
  if (kind == FdKind::kTcp) return loopback_tcp_pair();
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) ADD_FAILURE() << "socketpair failed";
  return {fds[0], fds[1]};
}

/// A connected stream pair of `kind` wrapped in two WorkerChannels.
struct ChannelPair {
  explicit ChannelPair(FdKind kind = FdKind::kUnix) {
    std::tie(fd_a, fd_b) = stream_pair(kind);
    a.emplace(fd_a);
    b.emplace(fd_b);
  }
  ~ChannelPair() {
    ::close(fd_a);
    ::close(fd_b);
  }
  int fd_a = -1, fd_b = -1;
  std::optional<WorkerChannel> a, b;
};

/// Everything the socket at `fd` holds right now.
Bytes drain_raw(int fd) {
  Bytes out;
  std::uint8_t chunk[4096];
  for (ssize_t got; (got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT)) > 0;)
    out.insert(out.end(), chunk, chunk + got);
  return out;
}

// The Link's record layouts, pinned byte for byte: a clean record, two
// reliable data records and the cumulative acks they draw.  A zero fixed
// delay enables reliable records without disturbing a transmission.
TEST(Link, RecordBytesArePinned) {
  int fds[2] = {-1, -1};
  int back[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, back), 0);
  {
    Link tx(fds[0]);
    ASSERT_TRUE(tx.send(7, Bytes{0xaa, 0xbb, 0xcc}, true));
    EXPECT_EQ(to_hex(drain_raw(fds[1])), "0400000007aabbcc");

    const ChaosSpec spec = parse_chaos_spec("delay:fixed:0");
    tx.enable_chaos(spec, 1, "pin");
    ASSERT_TRUE(tx.send(7, Bytes{0xaa, 0xbb, 0xcc}, true));
    ASSERT_TRUE(tx.send(8, Bytes{}, true));
    const Bytes records = drain_raw(fds[1]);
    EXPECT_EQ(to_hex(records),
              "1100000001000000000000000007aabbcc9baf6414"
              "0e0000000101000000000000000849056c56");

    // Replayed into a reliable receiver, both arrive in order and each
    // next() call acks the position reached.
    ASSERT_EQ(::send(back[0], records.data(), records.size(), 0),
              static_cast<ssize_t>(records.size()));
    Link rx(back[1]);
    rx.enable_chaos(spec, 1, "pin:rx");
    rx.pump(Link::Clock::now());
    const std::optional<Link::Record> first = rx.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, 7);
    EXPECT_EQ(Bytes(first->body.begin(), first->body.end()), (Bytes{0xaa, 0xbb, 0xcc}));
    const std::optional<Link::Record> second = rx.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, 8);
    EXPECT_TRUE(second->body.empty());
    EXPECT_EQ(to_hex(drain_raw(back[0])),
              "0d000000020100000000000000e5cf481f"
              "0d0000000202000000000000008c480cc4");
  }
  for (const int fd : {fds[0], fds[1], back[0], back[1]}) ::close(fd);
}

// A record sent unexposed draws no fate, so a Link's fates are a pure
// function of (seed, spec, exposed traffic): one that also sends an
// unexposed record between two exposed ones reports exactly the fates of
// one that sends only the two.  Certain loss pins it for any seed (the
// unexposed record is the only one on the wire); the mixed spec draws
// every fate kind.
TEST(Link, FatesDependOnlyOnExposedTraffic) {
  for (const char* text : {"loss:1", "loss:0.5,dup:0.5,reorder:0.5:2,corrupt:0.05"}) {
    SCOPED_TRACE(text);
    const ChaosSpec spec = parse_chaos_spec(text);
    const Bytes body(32, 0x5a);
    int mixed_fds[2] = {-1, -1};
    int exposed_fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, mixed_fds), 0);
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, exposed_fds), 0);
    {
      Link mixed(mixed_fds[0]);
      Link exposed(exposed_fds[0]);
      mixed.enable_chaos(spec, kMasterSeed, "fates");
      exposed.enable_chaos(spec, kMasterSeed, "fates");
      ASSERT_TRUE(mixed.send(1, body, true));
      ASSERT_TRUE(mixed.send(2, body, false));
      ASSERT_TRUE(mixed.send(3, body, true));
      ASSERT_TRUE(exposed.send(1, body, true));
      ASSERT_TRUE(exposed.send(3, body, true));
      const ChaosStats& a = mixed.chaos_stats();
      const ChaosStats& b = exposed.chaos_stats();
      EXPECT_EQ(a.dropped, b.dropped);
      EXPECT_EQ(a.duplicated, b.duplicated);
      EXPECT_EQ(a.reordered, b.reordered);
      EXPECT_EQ(a.delayed, b.delayed);
      EXPECT_EQ(a.corrupted, b.corrupted);
      if (spec.loss == 1.0) {
        EXPECT_EQ(a.dropped, 2u);
        // Sequenced and CRC'd, but clean: one reliable data record
        // (len | kind | seq | type | body | crc) is all the wire holds.
        EXPECT_EQ(drain_raw(mixed_fds[1]).size(), 4 + 1 + 8 + 1 + body.size() + 4);
      }
    }
    for (const int fd : {mixed_fds[0], mixed_fds[1], exposed_fds[0], exposed_fds[1]}) ::close(fd);
  }
}

// ----------------------------------------------------- wait_links ----

/// Three connected stream pairs of `kind`: the Links under test wrap the
/// `near` ends, and the tests write into the `far` ends.
struct ThreePairs {
  explicit ThreePairs(FdKind kind) {
    for (std::size_t i = 0; i < 3; ++i) {
      std::tie(near[i], far[i]) = stream_pair(kind);
      links.emplace_back(near[i]);
    }
  }
  ~ThreePairs() {
    for (std::size_t i = 0; i < 3; ++i) {
      ::close(near[i]);
      ::close(far[i]);
    }
  }
  int near[3] = {-1, -1, -1};
  int far[3] = {-1, -1, -1};
  std::vector<Link> links;
};

using WaitClock = Link::Clock;

TEST(WaitLinks, ReturnsWhenOneOfSeveralLinksBecomesReadable) {
  for (const FdKind kind : kFdKinds) {
    SCOPED_TRACE(fd_kind_name(kind));
    ThreePairs pairs(kind);
    // A record lands on the middle Link 50 ms into a 20 s wait.
    std::jthread writer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Link far(pairs.far[1]);
      EXPECT_TRUE(far.send(9, Bytes{1, 2, 3}, true));
    });
    const auto start = WaitClock::now();
    wait_links(pairs.links, start + std::chrono::seconds(20));
    EXPECT_LT(WaitClock::now() - start, std::chrono::seconds(10));
    writer.join();
    // wait_links pumped the ready Link, so its record is already read.
    const std::optional<Link::Record> record = pairs.links[1].next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->type, 9);
    EXPECT_EQ(Bytes(record->body.begin(), record->body.end()), (Bytes{1, 2, 3}));
    EXPECT_FALSE(pairs.links[0].next().has_value());
    EXPECT_FALSE(pairs.links[2].next().has_value());
  }
}

TEST(WaitLinks, ReturnsWhenALinkTimerFallsDue) {
  ThreePairs pairs(FdKind::kUnix);
  // The first transmission is dropped, so the RTO (25 ms before any round
  // trip sample) is the only thing that can happen; nobody ever writes.
  pairs.links[2].enable_chaos(parse_chaos_spec("loss:1,budget:4"), kMasterSeed, "wait:timer");
  ASSERT_TRUE(pairs.links[2].send(5, Bytes{7}, true));
  const WaitClock::time_point due = pairs.links[2].wake();
  const auto start = WaitClock::now();
  ASSERT_LT(due, start + std::chrono::seconds(2));
  wait_links(pairs.links, start + std::chrono::seconds(20));
  EXPECT_GE(WaitClock::now(), due);
  EXPECT_LT(WaitClock::now() - start, std::chrono::seconds(10));
  // The due Link was pumped: its RTO retransmitted the record, clean.
  EXPECT_EQ(pairs.links[2].chaos_stats().retransmits, 1u);
  EXPECT_FALSE(drain_raw(pairs.far[2]).empty());
}

TEST(WaitLinks, ReturnsAtTheDeadlineWhenNothingHappens) {
  ThreePairs pairs(FdKind::kUnix);
  const auto start = WaitClock::now();
  const auto deadline = start + std::chrono::milliseconds(120);
  wait_links(pairs.links, deadline);
  EXPECT_GE(WaitClock::now(), deadline);
  EXPECT_LT(WaitClock::now() - start, std::chrono::seconds(10));
  for (Link& l : pairs.links) EXPECT_FALSE(l.next().has_value());
}

TEST(ResilientChannel, RecoversUnderHeavyChaos) {
  for (const FdKind kind : kFdKinds) {
    SCOPED_TRACE(fd_kind_name(kind));
    ChannelPair pair(kind);
    const ChaosSpec spec = parse_chaos_spec("loss:0.3,dup:0.2,reorder:0.2:3,corrupt:0.002");
    pair.a->enable_chaos(spec, kMasterSeed, "test:a");
    pair.b->enable_chaos(spec, kMasterSeed, "test:b");

    constexpr std::size_t kFrames = 40;
    // Echo peer: reads each data frame and writes it straight back.  A
    // jthread, so a failed assertion below still joins it before `pair`
    // closes the descriptors.
    std::jthread peer([&] {
      ProcFrame type{};
      Bytes body;
      for (std::size_t i = 0; i < kFrames; ++i) {
        if (pair.b->read_frame(type, body, std::chrono::seconds(30)) !=
            WorkerChannel::Status::kOk)
          return;
        if (!pair.b->write_frame(type, body)) return;
      }
      (void)pair.b->drain(std::chrono::seconds(30));
    });

    stats::Rng rng = stats::Rng(kMasterSeed).fork("payload", 0);
    for (std::size_t i = 0; i < kFrames; ++i) {
      Bytes body;
      const std::size_t size = 1 + rng.below(256);
      for (std::size_t j = 0; j < size; ++j)
        body.push_back(static_cast<std::uint8_t>(rng.below(256)));
      ASSERT_TRUE(pair.a->write_frame(ProcFrame::kRound, body)) << "frame " << i;
      ProcFrame type{};
      Bytes echo;
      ASSERT_EQ(pair.a->read_frame(type, echo, std::chrono::seconds(30)),
                WorkerChannel::Status::kOk)
          << "frame " << i;
      EXPECT_EQ(type, ProcFrame::kRound) << "frame " << i;
      // In-order, uncorrupted delivery despite drops, duplicates, reorder
      // holds and bit flips: the reliability layer absorbed all of it.
      ASSERT_EQ(echo, body) << "frame " << i;
    }
    ASSERT_TRUE(pair.a->drain(std::chrono::seconds(30)));
    peer.join();

    const ChaosStats& stats = pair.a->chaos_stats();
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_GT(stats.retransmits, 0u);
    EXPECT_EQ(stats.budget_exhausted, 0u);
  }
}

TEST(ResilientChannel, BudgetExhaustionSurfacesAsStickyStatus) {
  for (const FdKind kind : kFdKinds) {
    SCOPED_TRACE(fd_kind_name(kind));
    ChannelPair pair(kind);
    pair.a->enable_chaos(parse_chaos_spec("loss:1,budget:0"), kMasterSeed, "test:a");
    // The write is chaos-dropped (still returns true: the retransmit
    // machinery owns recovery), and the first RTO burst finds a harmed
    // record with no budget left.
    ASSERT_TRUE(pair.a->write_frame(ProcFrame::kBegin, {}));
    ProcFrame type{};
    Bytes body;
    EXPECT_EQ(pair.a->read_frame(type, body, std::chrono::seconds(10)),
              WorkerChannel::Status::kBudget);
    // Sticky: the channel stays dead.
    EXPECT_EQ(pair.a->read_frame(type, body, std::chrono::milliseconds(10)),
              WorkerChannel::Status::kBudget);
    EXPECT_FALSE(pair.a->drain(std::chrono::milliseconds(10)));
    EXPECT_EQ(pair.a->chaos_stats().budget_exhausted, 1u);
  }
}

TEST(ResilientChannel, SpuriousRtoRetransmitsAreFree) {
  for (const FdKind kind : kFdKinds) {
    SCOPED_TRACE(fd_kind_name(kind));
    ChannelPair pair(kind);
    // No loss and no corruption: nothing is ever harmed, so even with a
    // zero budget a slow peer only ever triggers free retransmits.
    pair.a->enable_chaos(parse_chaos_spec("dup:0.2,budget:0"), kMasterSeed, "test:a");
    pair.b->enable_chaos(parse_chaos_spec("dup:0.2,budget:0"), kMasterSeed, "test:b");
    std::jthread peer([&] {
      // Sleep past several RTO firings before acking anything.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ProcFrame type{};
      Bytes body;
      (void)pair.b->read_frame(type, body, std::chrono::seconds(10));
    });
    ASSERT_TRUE(pair.a->write_frame(ProcFrame::kBegin, {}));
    ASSERT_TRUE(pair.a->drain(std::chrono::seconds(10)));
    peer.join();
    EXPECT_EQ(pair.a->chaos_stats().budget_exhausted, 0u);
  }
}

TEST(ResilientChannel, EnableChaosRejectsMisuse) {
  ChannelPair pair;
  EXPECT_THROW(pair.a->enable_chaos(ChaosSpec{}, 1, "x"), UsageError);  // inert spec
  pair.a->enable_chaos(parse_chaos_spec("loss:0.1"), 1, "x");
  EXPECT_THROW(pair.a->enable_chaos(parse_chaos_spec("loss:0.1"), 1, "x"),
               UsageError);  // already reliable
}

TEST(WorkerChannelErrors, FrameCapViolationNamesTypeLengthAndChannel) {
  ChannelPair pair;
  pair.a->set_label("coord:P7");
  // A plain frame whose length prefix claims 2^26 + 1 bytes with a kRound
  // type byte: the error must name the channel, the claimed type and the
  // declared length (satellite: actionable frame-cap context).
  const std::uint32_t huge = (1u << 26) + 1;
  const std::uint8_t raw[5] = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF),
      static_cast<std::uint8_t>(ProcFrame::kRound),
  };
  ASSERT_EQ(::write(pair.fd_b, raw, sizeof(raw)), static_cast<ssize_t>(sizeof(raw)));
  ProcFrame type{};
  Bytes body;
  try {
    (void)pair.a->read_frame(type, body, std::chrono::seconds(5));
    FAIL() << "oversized frame was accepted";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coord:P7"), std::string::npos) << what;
    EXPECT_NE(what.find("round"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(huge)), std::string::npos) << what;
  }
}

// ------------------------------------------------ socket backend chaos ----

sim::Message random_traffic_message(stats::Rng& rng, std::size_t n, std::size_t round) {
  sim::Message m;
  m.from = rng.below(n);
  m.to = rng.below(4) == 0 ? sim::kBroadcast : rng.below(n);
  m.round = round;
  m.tag = sim::Tag("t" + std::to_string(rng.below(8)));
  const std::size_t size = rng.below(128);
  for (std::size_t i = 0; i < size; ++i)
    m.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  return m;
}

bool messages_equal(const sim::Message& a, const sim::Message& b) {
  return a.from == b.from && a.to == b.to && a.round == b.round && a.tag == b.tag &&
         a.payload == b.payload;
}

/// Submits the same random traffic to every transport in `transports`
/// (opened with kParties parties and kSlots slots).
constexpr std::size_t kParties = 3;
constexpr std::size_t kSlots = 4;

void submit_random_traffic(const std::vector<Transport*>& transports, std::string_view label) {
  stats::Rng rng = stats::Rng(kMasterSeed).fork(label, 0);
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const std::size_t count = 8 + rng.below(16);
    for (std::size_t i = 0; i < count; ++i) {
      const sim::Message m = random_traffic_message(rng, kParties, slot);
      for (Transport* t : transports) t->submit(m, slot);
    }
  }
}

/// Recoverable chaos is invisible: the chaotic socket transport collects
/// exactly what the clean one does, in the same order, per slot.
TEST(SocketChaos, RecoverableChaosIsInvisibleAtCollect) {
  SocketTransport clean;
  SocketTransport chaotic(kDefaultNetTimeout,
                          parse_chaos_spec("loss:0.15,dup:0.1,reorder:0.1:2,corrupt:0.003"),
                          kMasterSeed);
  clean.open(kSlots);
  chaotic.open(kSlots);
  submit_random_traffic({&clean, &chaotic}, "socket-chaos");
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const std::vector<sim::Message> expect = clean.collect(slot);
    const std::vector<sim::Message> got = chaotic.collect(slot);
    ASSERT_EQ(got.size(), expect.size()) << "slot " << slot;
    for (std::size_t i = 0; i < expect.size(); ++i)
      ASSERT_TRUE(messages_equal(got[i], expect[i])) << "slot " << slot << " message " << i;
  }
  const ChaosStats stats = chaotic.chaos_stats();
  EXPECT_GT(stats.dropped + stats.corrupted + stats.duplicated + stats.reordered, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.budget_exhausted, 0u);
  clean.close();
  chaotic.close();
}

/// Frame fates are drawn per first transmission from each channel's DRBG,
/// so two transports fed the same seed, spec and traffic report the same
/// fates, however differently the kernel timed their recoveries.  Delay
/// and reorder exclude each other per frame, hence two specs.
TEST(SocketChaos, SameSeedSpecAndTrafficGiveIdenticalFrameFates) {
  ChaosStats seen;
  for (const char* text : {"loss:0.15,dup:0.1,reorder:0.2:2,corrupt:0.003",
                           "delay:uniform:0:1,loss:0.1"}) {
    SCOPED_TRACE(text);
    const ChaosSpec spec = parse_chaos_spec(text);
    SocketTransport first(kDefaultNetTimeout, spec, kMasterSeed);
    SocketTransport second(kDefaultNetTimeout, spec, kMasterSeed);
    first.open(kSlots);
    second.open(kSlots);
    submit_random_traffic({&first, &second}, "socket-chaos-fates");
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      (void)first.collect(slot);
      (void)second.collect(slot);
    }
    const ChaosStats a = first.chaos_stats();
    const ChaosStats b = second.chaos_stats();
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.reordered, b.reordered);
    EXPECT_EQ(a.delayed, b.delayed);
    EXPECT_EQ(a.corrupted, b.corrupted);
    seen += a;
  }
  // Every fate the comparison covers actually happened.
  EXPECT_GT(seen.dropped, 0u);
  EXPECT_GT(seen.duplicated, 0u);
  EXPECT_GT(seen.reordered, 0u);
  EXPECT_GT(seen.delayed, 0u);
  EXPECT_GT(seen.corrupted, 0u);
}

/// party:1 disturbs only the records addressed to party 1: under certain
/// loss every one of them is dropped once and no other record is, and the
/// retransmissions still deliver every record in submission order.
TEST(SocketChaos, PartyTargetingLeavesOtherChannelsClean) {
  SocketTransport transport(kDefaultNetTimeout, parse_chaos_spec("loss:1,party:1"), kMasterSeed);
  transport.open(1);
  const std::vector<sim::PartyId> destinations = {0, 1, sim::kBroadcast, 2, sim::kFunctionality,
                                                  1, 1, 0, sim::kBroadcast};
  std::vector<sim::Message> sent;
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    sent.push_back(sim::Message{i % kParties, destinations[i], 0, "t",
                                {static_cast<std::uint8_t>(i)}});
    transport.submit(sent.back(), 0);
  }
  const std::vector<sim::Message> got = transport.collect(0);
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_TRUE(messages_equal(got[i], sent[i])) << "message " << i;
  const ChaosStats stats = transport.chaos_stats();
  EXPECT_EQ(stats.dropped, 3u);  // the three records to party 1
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.budget_exhausted, 0u);
  transport.close();
}

/// `after:K` counts the exposed records of the one stream, whatever their
/// destinations: of seven records to three parties the first two ride
/// clean and the other five are lost once.
TEST(SocketChaos, WarmupCountsRecordsPerStream) {
  SocketTransport transport(kDefaultNetTimeout, parse_chaos_spec("loss:1,after:2"), kMasterSeed);
  transport.open(1);
  for (std::size_t i = 0; i < 7; ++i)
    transport.submit(sim::Message{0, i % kParties, 0, "t", {static_cast<std::uint8_t>(i)}}, 0);
  EXPECT_EQ(transport.collect(0).size(), 7u);
  EXPECT_EQ(transport.chaos_stats().dropped, 5u);
  transport.close();
}

/// A spent budget fails the execution at the first RTO, not after the
/// stall timeout: at the default 30 s net timeout the annotated error must
/// arrive within seconds.
TEST(SocketChaos, BudgetExhaustionAnnotatesTheStallError) {
  SocketTransport transport(kDefaultNetTimeout, parse_chaos_spec("loss:1,budget:0"),
                            kMasterSeed);
  transport.open(1);
  transport.submit(sim::Message{0, 1, 0, "t", {1}}, 0);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)transport.collect(0);
    FAIL() << "collect returned despite certain loss and a zero budget";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("chaos retransmit budget exhausted"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(transport.chaos_stats().budget_exhausted, 1u);
  transport.close();
}

TEST(SocketChaos, InProcessBackendIgnoresChaos) {
  auto transport = make_transport(TransportKind::kInProcess, kDefaultNetTimeout,
                                  parse_chaos_spec("loss:1,budget:0"), kMasterSeed);
  transport->open(1);
  transport->submit(sim::Message{0, 1, 0, "t", {1}}, 0);
  EXPECT_EQ(transport->collect(0).size(), 1u);  // no wire, no chaos
  transport->close();
}

}  // namespace
}  // namespace simulcast::net
