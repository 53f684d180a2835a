#include "sim/network.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "net/wire.h"

namespace simulcast::sim {
namespace {

// A minimal 2-round protocol for scheduler mechanics: round 0 every party
// broadcasts its bit; output bit j = what was heard from j.
class EchoBitsParty final : public Party {
 public:
  explicit EchoBitsParty(bool input) : input_(input) {}

  void begin(PartyContext& ctx) override {
    n_ = ctx.n();
    heard_ = BitVec(n_);
  }

  void on_round(Round round, const Inbox& inbox, PartyContext& ctx) override {
    record(inbox);
    if (round == 0) {
      heard_.set(ctx.id(), input_);
      ctx.broadcast("bit", Bytes{input_ ? std::uint8_t{1} : std::uint8_t{0}});
    }
  }

  void finish(const Inbox& inbox, PartyContext&) override {
    record(inbox);
    done_ = true;
  }

  [[nodiscard]] BitVec output() const override {
    if (!done_) throw ProtocolError("no output");
    return heard_;
  }

 private:
  void record(const Inbox& inbox) {
    for (const Message& m : inbox)
      if (m.tag == "bit" && m.payload.size() == 1 && m.from < n_)
        heard_.set(m.from, m.payload[0] != 0);
  }

  bool input_;
  std::size_t n_ = 0;
  BitVec heard_;
  bool done_ = false;
};

class EchoBitsProtocol final : public ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "echo-bits"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
  [[nodiscard]] std::unique_ptr<Party> make_party(PartyId, bool input,
                                                  const ProtocolParams&) const override {
    return std::make_unique<EchoBitsParty>(input);
  }
};

// Adversary that records what it saw, for observability assertions.
class RecordingAdversary final : public Adversary {
 public:
  void setup(const CorruptionInfo& info, crypto::HmacDrbg&) override { info_ = info; }
  void on_round(Round, const AdversaryView& view, AdversarySender&) override {
    delivered_total_ += view.delivered.size();
    rushed_total_ += view.rushed.size();
  }
  [[nodiscard]] Bytes output() const override {
    ByteWriter w;
    w.u64(delivered_total_);
    w.u64(rushed_total_);
    return w.take();
  }

  CorruptionInfo info_;
  std::size_t delivered_total_ = 0;
  std::size_t rushed_total_ = 0;
};

// Adversary that copies, within the same round (rushing), an honest
// broadcast bit into its own broadcast.
class RushingCopier final : public Adversary {
 public:
  explicit RushingCopier(PartyId victim) : victim_(victim) {}
  void setup(const CorruptionInfo& info, crypto::HmacDrbg&) override {
    corrupted_ = info.corrupted;
  }
  void on_round(Round round, const AdversaryView& view, AdversarySender& sender) override {
    if (round != 0) return;
    for (const Message& m : view.rushed) {
      if (m.from == victim_ && m.tag == "bit") {
        for (PartyId id : corrupted_) sender.broadcast(id, "bit", m.payload);
        return;
      }
    }
  }

 private:
  PartyId victim_;
  std::vector<PartyId> corrupted_;
};

ProtocolParams params_for(std::size_t n) {
  ProtocolParams p;
  p.n = n;
  return p;
}

TEST(Network, HonestExecutionDeliversAllBits) {
  EchoBitsProtocol proto;
  const BitVec inputs = BitVec::from_string("1010");
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 1;
  const ExecutionResult result = run_execution(proto, params_for(4), inputs, adv, config);
  ASSERT_EQ(result.outputs.size(), 4u);
  for (PartyId id = 0; id < 4; ++id) {
    ASSERT_TRUE(result.outputs[id].has_value());
    EXPECT_EQ(*result.outputs[id], inputs) << "party " << id;
  }
  EXPECT_TRUE(result.honest_outputs_consistent({}));
  // With no honest output there is nothing to be consistent with.
  ExecutionResult silent;
  silent.outputs.resize(4);
  EXPECT_FALSE(silent.honest_outputs_consistent({}));
}

TEST(Network, DeterministicForSeed) {
  EchoBitsProtocol proto;
  const BitVec inputs = BitVec::from_string("110");
  RecordingAdversary a1, a2;
  ExecutionConfig config;
  config.seed = 7;
  const auto r1 = run_execution(proto, params_for(3), inputs, a1, config);
  const auto r2 = run_execution(proto, params_for(3), inputs, a2, config);
  EXPECT_EQ(r1.outputs[0], r2.outputs[0]);
  EXPECT_EQ(r1.adversary_output, r2.adversary_output);
}

TEST(Network, CorruptedPartiesHaveNoMachine) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.corrupted = {1};
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  EXPECT_FALSE(result.outputs[1].has_value());
  EXPECT_TRUE(result.outputs[0].has_value());
  // Corrupted party 1 sent nothing, so its coordinate reads 0.
  EXPECT_EQ(result.outputs[0]->to_string(), "101");
}

TEST(Network, AdversaryReceivesCorruptedInputsAndAux) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.corrupted = {0, 2};
  config.auxiliary_input = {0xaa, 0xbb};
  (void)run_execution(proto, params_for(3), BitVec::from_string("101"), adv, config);
  EXPECT_EQ(adv.info_.corrupted, (std::vector<PartyId>{0, 2}));
  EXPECT_EQ(adv.info_.corrupted_inputs.to_string(), "11");
  EXPECT_EQ(adv.info_.auxiliary_input, (Bytes{0xaa, 0xbb}));
  EXPECT_EQ(adv.info_.n, 3u);
}

TEST(Network, RushingAdversarySeesSameRoundBroadcasts) {
  // The copier reads the victim's round-0 broadcast and repeats it in the
  // same round, so honest parties see the copied bit with zero delay.
  EchoBitsProtocol proto;
  for (const bool victim_bit : {false, true}) {
    RushingCopier adv(0);
    ExecutionConfig config;
    config.seed = 3;
    config.corrupted = {2};
    BitVec inputs = BitVec::from_string("010");
    inputs.set(0, victim_bit);
    const auto result = run_execution(proto, params_for(3), inputs, adv, config);
    EXPECT_EQ(result.outputs[0]->get(2), victim_bit);
    EXPECT_EQ(result.outputs[1]->get(2), victim_bit);
  }
}

TEST(Network, PrivateChannelsHideHonestP2pTraffic) {
  // Protocol variant where party 0 sends a p2p message to party 1.
  class P2pParty final : public Party {
   public:
    void on_round(Round round, const Inbox&, PartyContext& ctx) override {
      if (round == 0 && ctx.id() == 0) ctx.send(1, "secret", {0x42});
    }
    void finish(const Inbox&, PartyContext&) override {}
    [[nodiscard]] BitVec output() const override { return BitVec(3); }
  };
  class P2pProtocol final : public ParallelBroadcastProtocol {
   public:
    [[nodiscard]] std::string name() const override { return "p2p"; }
    [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
    [[nodiscard]] std::unique_ptr<Party> make_party(PartyId, bool,
                                                    const ProtocolParams&) const override {
      return std::make_unique<P2pParty>();
    }
  };

  P2pProtocol proto;
  for (const bool private_channels : {true, false}) {
    RecordingAdversary adv;
    ExecutionConfig config;
    config.corrupted = {2};
    config.private_channels = private_channels;
    (void)run_execution(proto, params_for(3), BitVec(3), adv, config);
    const Bytes adv_out = adv.output();
    ByteReader r(adv_out);
    (void)r.u64();  // delivered
    const std::uint64_t rushed = r.u64();
    if (private_channels)
      EXPECT_EQ(rushed, 0u) << "private p2p message leaked to the adversary";
    else
      EXPECT_EQ(rushed, 1u) << "public channels should expose p2p traffic";
  }
}

TEST(Network, TrafficAccounting) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  const auto result = run_execution(proto, params_for(4), BitVec(4), adv, config);
  EXPECT_EQ(result.traffic.messages, 4u);
  EXPECT_EQ(result.traffic.broadcasts, 4u);
  EXPECT_EQ(result.traffic.point_to_point, 0u);
  // Serialized accounting: each send is one frame of overhead + tag ("bit")
  // + 1 payload byte, and a broadcast fans out to n - 1 recipients.
  const std::size_t frame = net::kFrameOverhead + 3 + 1;
  EXPECT_EQ(result.traffic.wire_bytes, 4u * frame);
  EXPECT_EQ(result.traffic.wire_delivered_bytes, 4u * frame * 3u);
}

TEST(Network, TraceRecordsMessages) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.record_trace = true;
  const auto result = run_execution(proto, params_for(3), BitVec(3), adv, config);
  ASSERT_EQ(result.trace.size(), 2u);  // 1 round + final snapshot
  EXPECT_EQ(result.trace[0].size(), 3u);
}

TEST(Network, ConfigValidation) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.corrupted = {5};
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(3), adv, config), UsageError);
  config.corrupted = {1, 1};
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(3), adv, config), UsageError);
  config.corrupted = {};
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(4), adv, config), UsageError);
  EXPECT_THROW((void)run_execution(proto, params_for(0), BitVec(0), adv, config), UsageError);
}

TEST(Network, AdversarySenderRejectsHonestFrom) {
  AdversarySender sender({1});
  EXPECT_THROW(sender.send(0, 2, "x", {}), UsageError);
  EXPECT_NO_THROW(sender.send(1, 2, "x", {}));
  EXPECT_THROW(sender.broadcast(2, "x", {}), UsageError);
}

// ---------------------------------------------------------------- faults ----

// A party that sends its bit point-to-point instead of on the broadcast
// channel, for partition/drop assertions (the broadcast channel is exempt).
class P2pEchoParty final : public Party {
 public:
  explicit P2pEchoParty(bool input) : input_(input) {}
  void begin(PartyContext& ctx) override {
    n_ = ctx.n();
    heard_ = BitVec(n_);
  }
  void on_round(Round round, const Inbox& inbox, PartyContext& ctx) override {
    record(inbox);
    if (round == 0) {
      heard_.set(ctx.id(), input_);
      for (PartyId to = 0; to < n_; ++to)
        if (to != ctx.id()) ctx.send(to, "bit", Bytes{input_ ? std::uint8_t{1} : std::uint8_t{0}});
    }
  }
  void finish(const Inbox& inbox, PartyContext&) override { record(inbox); }
  [[nodiscard]] BitVec output() const override { return heard_; }

 private:
  void record(const Inbox& inbox) {
    for (const Message& m : inbox)
      if (m.tag == "bit" && m.payload.size() == 1 && m.from < n_)
        heard_.set(m.from, m.payload[0] != 0);
  }
  bool input_;
  std::size_t n_ = 0;
  BitVec heard_;
};

class P2pEchoProtocol final : public ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "p2p-echo"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
  [[nodiscard]] std::unique_ptr<Party> make_party(PartyId, bool input,
                                                  const ProtocolParams&) const override {
    return std::make_unique<P2pEchoParty>(input);
  }
};

/// EchoBits stretched to three rounds so delayed deliveries still land
/// before the final round.
class SlowEchoProtocol final : public ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "slow-echo"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 3; }
  [[nodiscard]] std::unique_ptr<Party> make_party(PartyId, bool input,
                                                  const ProtocolParams&) const override {
    return std::make_unique<EchoBitsParty>(input);
  }
};

TEST(Faults, CrashStopsPartyAtScheduledRound) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 3;
  config.faults.crashes = {{0, 0}};
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  EXPECT_EQ(result.crashed, (std::vector<PartyId>{0}));
  EXPECT_EQ(result.traffic.crashed, 1u);
  EXPECT_FALSE(result.outputs[0].has_value());
  for (PartyId id : {PartyId{1}, PartyId{2}}) {
    ASSERT_TRUE(result.outputs[id].has_value()) << id;
    // P0 crashed before sending, so its coordinate was never heard.
    EXPECT_EQ(result.outputs[id]->to_string(), "011") << id;
  }
}

TEST(Faults, CrashOfCorruptedPartyIsANoOp) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 3;
  config.corrupted = {0};
  config.faults.crashes = {{0, 0}};
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  EXPECT_TRUE(result.crashed.empty());
  EXPECT_EQ(result.traffic.crashed, 0u);
}

TEST(Faults, PartitionCutsP2pLinksBothWays) {
  P2pEchoProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 5;
  config.faults.partitions.push_back({{0}, 0, std::numeric_limits<Round>::max()});
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  // P0 hears neither side and vice versa; the {1, 2} side still exchanges.
  EXPECT_EQ(result.outputs[0]->to_string(), "100");
  EXPECT_EQ(result.outputs[1]->to_string(), "011");
  EXPECT_EQ(result.outputs[2]->to_string(), "011");
  EXPECT_EQ(result.traffic.blocked, 4u);  // 0->1, 0->2, 1->0, 2->0
  EXPECT_EQ(result.traffic.dropped, 0u);
}

TEST(Faults, PartitionLeavesBroadcastChannelAlone) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 5;
  config.faults.partitions.push_back({{0}, 0, std::numeric_limits<Round>::max()});
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  for (PartyId id = 0; id < 3; ++id) EXPECT_EQ(result.outputs[id]->to_string(), "111") << id;
  EXPECT_EQ(result.traffic.blocked, 0u);
}

TEST(Faults, DropProbabilityOneLosesEveryMessage) {
  P2pEchoProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 7;
  config.faults.drop_probability = 1.0;
  const auto result = run_execution(proto, params_for(3), BitVec::from_string("111"), adv, config);
  for (PartyId id = 0; id < 3; ++id) {
    BitVec own(3);
    own.set(id, true);
    EXPECT_EQ(*result.outputs[id], own) << "party " << id << " heard someone";
  }
  EXPECT_EQ(result.traffic.dropped, result.traffic.messages);
}

TEST(Faults, BoundedDelayStillDeliversWithinTheRun) {
  SlowEchoProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.seed = 11;
  config.faults.max_delay = 2;  // bits sent in round 0 land by round 3 = finish
  const auto result = run_execution(proto, params_for(4), BitVec::from_string("1111"), adv, config);
  for (PartyId id = 0; id < 4; ++id)
    EXPECT_EQ(result.outputs[id]->to_string(), "1111") << id;
  EXPECT_GT(result.traffic.delayed, 0u);
  EXPECT_EQ(result.traffic.dropped, 0u);
}

TEST(Faults, FaultyExecutionIsDeterministicForSeed) {
  P2pEchoProtocol proto;
  ExecutionConfig config;
  config.seed = 13;
  config.faults.drop_probability = 0.4;
  config.faults.max_delay = 1;
  RecordingAdversary a1, a2;
  const auto r1 = run_execution(proto, params_for(4), BitVec::from_string("1010"), a1, config);
  const auto r2 = run_execution(proto, params_for(4), BitVec::from_string("1010"), a2, config);
  for (PartyId id = 0; id < 4; ++id) EXPECT_EQ(r1.outputs[id], r2.outputs[id]) << id;
  EXPECT_EQ(r1.traffic.dropped, r2.traffic.dropped);
  EXPECT_EQ(r1.traffic.delayed, r2.traffic.delayed);
}

TEST(Faults, PlanValidationRejectsMalformedPlans) {
  EchoBitsProtocol proto;
  RecordingAdversary adv;
  ExecutionConfig config;
  config.faults.drop_probability = 1.5;
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(3), adv, config), UsageError);
  config.faults.drop_probability = 0.0;
  config.faults.crashes = {{7, 0}};
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(3), adv, config), UsageError);
  config.faults.crashes.clear();
  config.faults.partitions.push_back({{}, 0, 1});
  EXPECT_THROW((void)run_execution(proto, params_for(3), BitVec(3), adv, config), UsageError);
}

TEST(Faults, CrashScheduleParserRoundTrips) {
  const auto crashes = parse_crash_schedule("1@0,2@5");
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].party, 1u);
  EXPECT_EQ(crashes[0].round, 0u);
  EXPECT_EQ(crashes[1].party, 2u);
  EXPECT_EQ(crashes[1].round, 5u);
  EXPECT_THROW((void)parse_crash_schedule(""), UsageError);
  EXPECT_THROW((void)parse_crash_schedule("1@"), UsageError);
  EXPECT_THROW((void)parse_crash_schedule("@2"), UsageError);
  EXPECT_THROW((void)parse_crash_schedule("1@2x"), UsageError);
  EXPECT_THROW((void)parse_crash_schedule("one@2"), UsageError);
}

// Party and round go through the strict number parser (base/parse.h): a
// sign, whitespace or overflow is a usage error, never a wrap to 2^64-1
// nor a silently trimmed blank.
TEST(Faults, CrashScheduleParserIsStrict) {
  for (const char* text : {"+1@0", " 1@0", "1 @0", "1@ 0", "1@0 ", "-1@0", "1@-0",
                           "99999999999999999999@0", "1@0x2", "1"})
    EXPECT_THROW((void)parse_crash_schedule(text), UsageError) << "'" << text << "'";
  EXPECT_EQ(parse_crash_schedule("18446744073709551615@0")[0].party, 18446744073709551615u);
}

}  // namespace
}  // namespace simulcast::sim
