// Parameterized tests over the three VSS-based simultaneous-broadcast
// protocols (CGMA, Chor-Rabin, Gennaro): they share the commit-recoverable
// skeleton, so the behavioural contract is identical; only the schedules
// differ.  The receiver they share with Θ-MPC (ShareLedger, ComplaintBook)
// is pinned directly at the end.
#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "protocols/vss_core.h"
#include "sim/network.h"

namespace simulcast::protocols {
namespace {

class VssProtocolTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<sim::ParallelBroadcastProtocol> proto_ = core::make_protocol(GetParam());

  sim::ProtocolParams params_for(std::size_t n) {
    sim::ProtocolParams p;
    p.n = n;
    return p;
  }

  broadcast::Announced run(const BitVec& inputs, sim::Adversary& adv,
                           std::vector<sim::PartyId> corrupted, std::uint64_t seed = 1) {
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = corrupted;
    const auto result =
        sim::run_execution(*proto_, params_for(inputs.size()), inputs, adv, config);
    return broadcast::extract_announced(result, corrupted);
  }
};

TEST_P(VssProtocolTest, HonestExecutionAllInputs) {
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const BitVec inputs(4, bits);
    adversary::SilentAdversary adv;
    const auto announced = run(inputs, adv, {});
    ASSERT_TRUE(announced.consistent) << inputs.to_string();
    EXPECT_EQ(announced.w, inputs) << inputs.to_string();
  }
}

TEST_P(VssProtocolTest, HonestExecutionOddN) {
  const BitVec inputs = BitVec::from_string("10110");
  adversary::SilentAdversary adv;
  const auto announced = run(inputs, adv, {});
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, inputs);
}

TEST_P(VssProtocolTest, PassiveCorruptionMatchesHonest) {
  const BitVec inputs = BitVec::from_string("1101");
  adversary::PassiveAdversary adv(*proto_, params_for(4));
  const auto announced = run(inputs, adv, {0});
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, inputs);
}

TEST_P(VssProtocolTest, SilentCorruptedPartyDefaultsToZero) {
  adversary::SilentAdversary adv;
  const auto announced = run(BitVec::from_string("1111"), adv, {1});
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w.to_string(), "1011");
}

TEST_P(VssProtocolTest, MaxCorruptionsStillConsistent) {
  const std::size_t n = 5;
  const std::size_t t = proto_->max_corruptions(n);
  EXPECT_EQ(t, 2u);
  adversary::SilentAdversary adv;
  const auto announced = run(BitVec::from_string("11111"), adv, {0, 3});
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w.to_string(), "01101");
}

TEST_P(VssProtocolTest, RevealWithholdingCannotChangeAnnouncedValue) {
  // The key robustness property separating these protocols from naive
  // commit-reveal: a corrupted party that deals honestly but withholds all
  // of its reveal-phase messages is still announced with its dealt bit,
  // because the honest majority reconstructs it.
  class WithholdingPassive final : public sim::Adversary {
   public:
    WithholdingPassive(const sim::ParallelBroadcastProtocol& proto,
                       const sim::ProtocolParams& params)
        : inner_(proto, params) {}
    void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
      inner_.setup(info, drbg);
      corrupted_ = info.corrupted;
    }
    void on_round(sim::Round round, const sim::AdversaryView& view,
                  sim::AdversarySender& sender) override {
      sim::AdversarySender buffer(corrupted_);
      inner_.on_round(round, view, buffer);
      for (sim::Message& m : buffer.take_outbox()) {
        if (m.tag == kVssRevealTag) continue;  // withhold every reveal
        if (m.to == sim::kBroadcast)
          sender.broadcast(m.from, m.tag, m.payload);
        else
          sender.send(m.from, m.to, m.tag, m.payload);
      }
    }
    adversary::PassiveAdversary inner_;
    std::vector<sim::PartyId> corrupted_;
  };

  for (const bool corrupted_bit : {false, true}) {
    WithholdingPassive adv(*proto_, params_for(4));
    BitVec inputs = BitVec::from_string("0110");
    inputs.set(2, corrupted_bit);
    const auto announced = run(inputs, adv, {2});
    ASSERT_TRUE(announced.consistent);
    EXPECT_EQ(announced.w.get(2), corrupted_bit)
        << "withholding reveals changed the announced value";
    EXPECT_EQ(announced.w, inputs);
  }
}

TEST_P(VssProtocolTest, BadSharesToMinorityAreJustifiedAway) {
  // A corrupted dealer that sends garbage shares to one honest party gets
  // complained about; a passive-else adversary never justifies, so the
  // dealer is disqualified and announced 0.
  class BadShareDealer final : public sim::Adversary {
   public:
    BadShareDealer(const sim::ParallelBroadcastProtocol& proto,
                   const sim::ProtocolParams& params)
        : inner_(proto, params) {}
    void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
      inner_.setup(info, drbg);
      corrupted_ = info.corrupted;
    }
    void on_round(sim::Round round, const sim::AdversaryView& view,
                  sim::AdversarySender& sender) override {
      sim::AdversarySender buffer(corrupted_);
      inner_.on_round(round, view, buffer);
      for (sim::Message& m : buffer.take_outbox()) {
        if (m.tag == kVssShareTag && m.to == 0) {
          // Corrupt the share bytes sent to party 0.
          Bytes garbage = m.payload;
          garbage[8] ^= 0xff;
          sender.send(m.from, m.to, m.tag, garbage);
          continue;
        }
        if (m.tag == kVssJustifyTag) continue;  // refuse to justify
        if (m.to == sim::kBroadcast)
          sender.broadcast(m.from, m.tag, m.payload);
        else
          sender.send(m.from, m.to, m.tag, m.payload);
      }
    }
    adversary::PassiveAdversary inner_;
    std::vector<sim::PartyId> corrupted_;
  };

  BadShareDealer adv(*proto_, params_for(4));
  const auto announced = run(BitVec::from_string("1111"), adv, {2});
  ASSERT_TRUE(announced.consistent);
  EXPECT_FALSE(announced.w.get(2)) << "unjustified dealer must be disqualified to 0";
  EXPECT_TRUE(announced.w.get(0));
  EXPECT_TRUE(announced.w.get(1));
  EXPECT_TRUE(announced.w.get(3));
}

TEST_P(VssProtocolTest, FalseComplaintIsJustifiedAndHarmless) {
  // A corrupted party that falsely complains about an honest dealer cannot
  // change the dealer's announced value: the dealer justifies publicly.
  class FalseComplainer final : public sim::Adversary {
   public:
    FalseComplainer(const sim::ParallelBroadcastProtocol& proto,
                    const sim::ProtocolParams& params, sim::Round complaint_round)
        : inner_(proto, params), complaint_round_(complaint_round) {}
    void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
      inner_.setup(info, drbg);
      corrupted_ = info.corrupted;
    }
    void on_round(sim::Round round, const sim::AdversaryView& view,
                  sim::AdversarySender& sender) override {
      sim::AdversarySender buffer(corrupted_);
      inner_.on_round(round, view, buffer);
      for (sim::Message& m : buffer.take_outbox()) {
        if (m.tag == kVssComplainTag && m.round == 0 && round == complaint_round_) {
          // Overwritten below.
        }
        if (m.to == sim::kBroadcast)
          sender.broadcast(m.from, m.tag, m.payload);
        else
          sender.send(m.from, m.to, m.tag, m.payload);
      }
      if (round == complaint_round_) {
        ByteWriter w;
        w.u64(0b0001);  // falsely accuse dealer 0
        sender.broadcast(corrupted_[0], kVssComplainTag, w.take());
      }
    }
    adversary::PassiveAdversary inner_;
    std::vector<sim::PartyId> corrupted_;
    sim::Round complaint_round_;
  };

  // Find the complaint round from the protocol's schedule via known names.
  const std::string name = proto_->name();
  sim::Round complaint_round = 0;
  if (name == "cgma")
    complaint_round = 4;
  else if (name == "gennaro")
    complaint_round = 1;
  else
    complaint_round = 7;  // chor-rabin, n=4: 1 + 3*2 = 7

  FalseComplainer adv(*proto_, params_for(4), complaint_round);
  const auto announced = run(BitVec::from_string("1011"), adv, {2});
  ASSERT_TRUE(announced.consistent);
  EXPECT_TRUE(announced.w.get(0)) << "false complaint must not disqualify an honest dealer";
}

TEST_P(VssProtocolTest, RoundCountsMatchSpec) {
  const std::string name = proto_->name();
  if (name == "cgma") {
    EXPECT_EQ(proto_->rounds(4), 7u);
    EXPECT_EQ(proto_->rounds(16), 19u);
  } else if (name == "gennaro") {
    EXPECT_EQ(proto_->rounds(4), 4u);
    EXPECT_EQ(proto_->rounds(64), 4u);
  } else if (name == "chor-rabin") {
    EXPECT_EQ(proto_->rounds(4), 10u);   // 4 + 3*2
    EXPECT_EQ(proto_->rounds(16), 16u);  // 4 + 3*4
    EXPECT_EQ(proto_->rounds(64), 22u);  // 4 + 3*6
  }
}

TEST_P(VssProtocolTest, DeterministicAcrossRuns) {
  adversary::SilentAdversary a1, a2;
  const BitVec inputs = BitVec::from_string("1010");
  const auto r1 = run(inputs, a1, {}, 99);
  const auto r2 = run(inputs, a2, {}, 99);
  EXPECT_EQ(r1.w, r2.w);
}

INSTANTIATE_TEST_SUITE_P(AllVssProtocols, VssProtocolTest,
                         ::testing::Values("cgma", "chor-rabin", "gennaro"),
                         [](const auto& tp_info) {
                           std::string s(tp_info.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

class ShareLedgerTest : public ::testing::Test {
 protected:
  crypto::PedersenVss vss_;
  crypto::HmacDrbg drbg_{3, "share-ledger-test"};
  const crypto::Zq one_{1, vss_.group().q()};
  // t = 1 over 4 parties: any two verifying shares reconstruct.
  const crypto::PedersenDeal deal_ = vss_.deal(one_, 1, 4, drbg_);

  [[nodiscard]] crypto::PedersenShare tampered(std::size_t i) const {
    crypto::PedersenShare share = deal_.shares[i];
    share.value += one_;
    return share;
  }
};

TEST_F(ShareLedgerTest, PublishesVerifyingSharesOncePerPoint) {
  ShareLedger ledger;
  ledger.publish(deal_.shares[0]);  // no commitments yet: nothing verifies
  EXPECT_FALSE(ledger.verifies(deal_.shares[0]));
  ledger.set_commitments(deal_.commitments);
  ledger.set_commitments({});  // first wins
  ledger.publish(tampered(1));
  ledger.publish(deal_.shares[0]);
  EXPECT_FALSE(ledger.reconstruct(1).has_value()) << "one public share of two needed";
  ledger.publish(deal_.shares[0]);  // a second share at point 1 is dropped
  EXPECT_FALSE(ledger.reconstruct(1).has_value());
  ledger.publish(deal_.shares[1]);  // the tampered share did not take point 2
  EXPECT_EQ(ledger.reconstruct(1), one_);
}

TEST_F(ShareLedgerTest, ReconstructsFromPublicSharesThenMine) {
  ShareLedger ledger;
  ledger.set_my_share(tampered(2));
  ledger.set_my_share(deal_.shares[2]);  // first wins
  ledger.set_commitments(deal_.commitments);
  ledger.publish(deal_.shares[0]);
  EXPECT_FALSE(ledger.my_share_verifies());
  EXPECT_FALSE(ledger.reconstruct(1).has_value()) << "a failing share of mine does not count";

  ShareLedger mine;
  mine.set_commitments(deal_.commitments);
  mine.set_my_share(deal_.shares[2]);
  mine.publish(deal_.shares[0]);
  EXPECT_TRUE(mine.my_share_verifies());
  EXPECT_EQ(mine.reconstruct(1), one_);
}

TEST(ComplaintBook, DisqualifiesDealersThatDidNotDealOrLeftComplaintsUnanswered) {
  ComplaintBook book(4);
  book.file(1, 0b0101);  // party 1 accuses dealers 0 and 2
  book.file(3, 0b0100);  // party 3 accuses dealer 2
  EXPECT_TRUE(book.filed(0, 1));
  EXPECT_FALSE(book.filed(0, 3));
  EXPECT_FALSE(book.filed(2, 65)) << "a complainer id off the wire is not a party";
  book.justify(0, 1);
  book.justify(2, 1);
  for (sim::PartyId d = 0; d < 4; ++d) book.decide(d, /*dealt=*/d != 3);
  EXPECT_FALSE(book.disqualified(0)) << "its one complaint was answered";
  EXPECT_FALSE(book.disqualified(1)) << "no complaint";
  EXPECT_TRUE(book.disqualified(2)) << "party 3's complaint is unanswered";
  EXPECT_TRUE(book.disqualified(3)) << "it did not deal";
}

}  // namespace
}  // namespace simulcast::protocols
