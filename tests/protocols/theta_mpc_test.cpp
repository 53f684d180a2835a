// Tests of the real-MPC Θ backend (protocols/theta_mpc.h): behavioural
// equivalence with the ideal functionality is the point, so most tests
// mirror theta_test.cpp's FlawedPiG suite.
#include "protocols/theta_mpc.h"

#include <gtest/gtest.h>

#include <functional>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "sim/network.h"

namespace simulcast::protocols {
namespace {

/// Runs the honest machines of the corrupted parties and hands each of
/// their messages to `edit`, which forwards, replaces or drops it; `extra`
/// may add messages of its own in any round.
class EditingPassive final : public sim::Adversary {
 public:
  using Edit = std::function<void(sim::Message&, sim::AdversarySender&)>;
  using Extra = std::function<void(sim::Round, sim::PartyId, sim::AdversarySender&)>;

  EditingPassive(const ThetaMpcProtocol& proto, const sim::ProtocolParams& params, Edit edit,
                 Extra extra = {})
      : inner_(proto, params), edit_(std::move(edit)), extra_(std::move(extra)) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
    inner_.setup(info, drbg);
    corrupted_ = info.corrupted;
  }
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override {
    sim::AdversarySender buffer(corrupted_);
    inner_.on_round(round, view, buffer);
    for (sim::Message& m : buffer.take_outbox()) edit_(m, sender);
    if (extra_) extra_(round, corrupted_.front(), sender);
  }

 private:
  adversary::PassiveAdversary inner_;
  Edit edit_;
  Extra extra_;
  std::vector<sim::PartyId> corrupted_;
};

void pass_through(sim::Message& m, sim::AdversarySender& sender) {
  if (m.to == sim::kBroadcast)
    sender.broadcast(m.from, m.tag, std::move(m.payload));
  else
    sender.send(m.from, m.to, m.tag, std::move(m.payload));
}

class ThetaMpcTest : public ::testing::Test {
 protected:
  ThetaMpcProtocol proto_;

  sim::ProtocolParams params_for(std::size_t n) {
    sim::ProtocolParams p;
    p.n = n;
    return p;
  }

  broadcast::Announced run(const BitVec& inputs, sim::Adversary& adv,
                           std::vector<sim::PartyId> corrupted, std::uint64_t seed) {
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = corrupted;
    const auto result =
        sim::run_execution(proto_, params_for(inputs.size()), inputs, adv, config);
    return broadcast::extract_announced(result, corrupted);
  }
};

TEST_F(ThetaMpcTest, HonestExecutionAnnouncesInputs) {
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const BitVec inputs(4, bits);
    adversary::SilentAdversary adv;
    const auto announced = run(inputs, adv, {}, bits + 1);
    ASSERT_TRUE(announced.consistent) << inputs.to_string();
    EXPECT_EQ(announced.w, inputs) << inputs.to_string();
  }
}

TEST_F(ThetaMpcTest, ConstantRounds) {
  EXPECT_EQ(proto_.rounds(4), 4u);
  EXPECT_EQ(proto_.rounds(32), 4u);
}

TEST_F(ThetaMpcTest, SilentCorruptedPartyDefaultsToZero) {
  adversary::SilentAdversary adv;
  const auto announced = run(BitVec::from_string("1111"), adv, {2}, 3);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w.to_string(), "1101");
}

TEST_F(ThetaMpcTest, PassiveCorruptionMatchesHonest) {
  adversary::PassiveAdversary adv(proto_, params_for(5));
  const BitVec inputs = BitVec::from_string("10101");
  const auto announced = run(inputs, adv, {1, 3}, 4);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, inputs);
}

TEST_F(ThetaMpcTest, ParityAttackForcesZeroXor) {
  // Claim 6.6 over the real-MPC backend: XOR of announced bits is 0 in
  // every execution, honest coordinates untouched.
  sim::ProtocolParams params = params_for(5);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::uint64_t bits = 0; bits < 32; bits += 5) {
      const BitVec inputs(5, bits);
      adversary::ThetaMpcParityAdversary adv(proto_, params);
      const auto announced = run(inputs, adv, {1, 3}, seed);
      ASSERT_TRUE(announced.consistent);
      EXPECT_FALSE(announced.w.parity()) << "seed=" << seed << " bits=" << bits;
      EXPECT_EQ(announced.w.get(0), inputs.get(0));
      EXPECT_EQ(announced.w.get(2), inputs.get(2));
      EXPECT_EQ(announced.w.get(4), inputs.get(4));
    }
  }
}

TEST_F(ThetaMpcTest, ParityAttackCoinIsUnbiased) {
  sim::ProtocolParams params = params_for(5);
  std::size_t ones = 0;
  const std::size_t reps = 300;
  for (std::uint64_t seed = 0; seed < reps; ++seed) {
    adversary::ThetaMpcParityAdversary adv(proto_, params);
    const auto announced = run(BitVec::from_string("10101"), adv, {1, 3}, seed);
    ones += announced.w.get(1) ? std::size_t{1} : std::size_t{0};
  }
  EXPECT_GT(ones, reps / 2 - std::size_t{55});
  EXPECT_LT(ones, reps / 2 + std::size_t{55});
}

TEST_F(ThetaMpcTest, RevealWithholdingCannotChangeOutput) {
  // Same robustness property as the VSS protocols: a corrupted party that
  // participates in dealing but withholds every reveal is still announced
  // with its committed bit.
  for (const bool corrupted_bit : {false, true}) {
    EditingPassive adv(proto_, params_for(4), [](sim::Message& m, sim::AdversarySender& sender) {
      if (m.tag != kTmpcRevealTag) pass_through(m, sender);
    });
    BitVec inputs = BitVec::from_string("0110");
    inputs.set(2, corrupted_bit);
    const auto announced = run(inputs, adv, {2}, 5);
    ASSERT_TRUE(announced.consistent);
    EXPECT_EQ(announced.w.get(2), corrupted_bit);
    EXPECT_EQ(announced.w, inputs);
  }
}

TEST_F(ThetaMpcTest, SingleLitBitIsHarmless) {
  // |L| = 1 leaves g as the identity; a single corrupted party raising b
  // changes nothing.
  const sim::ProtocolParams params = params_for(4);
  adversary::PassiveAdversary adv([&](std::size_t /*j*/, sim::PartyId id, bool input) {
    return proto_.make_attack_party(id, input, /*lit=*/true, params);
  });
  const BitVec inputs = BitVec::from_string("1011");
  const auto announced = run(inputs, adv, {2}, 6);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, inputs);
}

TEST_F(ThetaMpcTest, BadSharesToMinorityAreJustifiedAway) {
  // A corrupted dealer garbles P0's twin share (the value of its x share)
  // and never justifies: P0 complains, the complaint stays unanswered, and
  // the dealer is disqualified and announced 0 by everyone.
  EditingPassive adv(proto_, params_for(4), [](sim::Message& m, sim::AdversarySender& sender) {
    if (m.tag == kTmpcJustifyTag) return;  // refuse to justify
    if (m.tag == kTmpcShareTag && m.to == 0) m.payload[12] ^= 0xff;
    pass_through(m, sender);
  });
  const auto announced = run(BitVec::from_string("1111"), adv, {2}, 7);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w.to_string(), "1101") << "the unjustified dealer must be announced 0";
}

TEST_F(ThetaMpcTest, FalseComplaintIsJustifiedAndHarmless) {
  // A corrupted party falsely accuses honest dealer 0 in the complaint
  // round; dealer 0 answers with a public justification, so it stays
  // qualified and its bit is announced as dealt.
  EditingPassive adv(proto_, params_for(4), pass_through,
                     [](sim::Round round, sim::PartyId from, sim::AdversarySender& sender) {
                       if (round != 1) return;
                       ByteWriter w;
                       w.u64(0b0001);
                       sender.broadcast(from, kTmpcComplainTag, w.take());
                     });
  sim::ExecutionConfig config;
  config.seed = 8;
  config.corrupted = {2};
  config.record_trace = true;
  const BitVec inputs = BitVec::from_string("1011");
  const auto result = sim::run_execution(proto_, params_for(4), inputs, adv, config);
  std::size_t justifications = 0;
  for (const auto& round : result.trace)
    for (const sim::Message& m : round)
      if (m.tag == kTmpcJustifyTag && m.from == 0) ++justifications;
  EXPECT_EQ(justifications, 1u) << "dealer 0 must answer the complaint";
  const auto announced = broadcast::extract_announced(result, config.corrupted);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, inputs);
}

TEST_F(ThetaMpcTest, DeterministicPerSeed) {
  adversary::SilentAdversary a1, a2;
  const auto r1 = run(BitVec::from_string("1010"), a1, {}, 77);
  const auto r2 = run(BitVec::from_string("1010"), a2, {}, 77);
  EXPECT_EQ(r1.w, r2.w);
}

}  // namespace
}  // namespace simulcast::protocols
