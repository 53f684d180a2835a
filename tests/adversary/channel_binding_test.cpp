// Regression tests for the channel-equivocation bug class found by the
// fuzzing suite: a "broadcast" message delivered point-to-point to a strict
// subset of parties must be ignored, or the adversary splits honest views
// and breaks consistency.
#include <gtest/gtest.h>

#include "fuzz_adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "protocols/gennaro.h"
#include "protocols/seq_broadcast.h"
#include "protocols/vss_core.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::adversary {
namespace {

/// Sends a crafted message point-to-point to exactly one honest party, with
/// a tag that the protocol treats as broadcast-only.
class P2pInjector final : public sim::Adversary {
 public:
  P2pInjector(sim::Round round, sim::Tag tag, Bytes payload, sim::PartyId target)
      : round_(round), tag_(tag), payload_(std::move(payload)), target_(target) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg&) override {
    corrupted_ = info.corrupted;
  }
  void on_round(sim::Round round, const sim::AdversaryView&,
                sim::AdversarySender& sender) override {
    if (round == round_) sender.send(corrupted_.front(), target_, tag_, payload_);
  }

 private:
  sim::Round round_;
  sim::Tag tag_;
  Bytes payload_;
  sim::PartyId target_;
  std::vector<sim::PartyId> corrupted_;
};

broadcast::Announced run(const sim::ParallelBroadcastProtocol& proto, const BitVec& inputs,
                         sim::Adversary& adv, std::vector<sim::PartyId> corrupted) {
  sim::ProtocolParams params;
  params.n = inputs.size();
  sim::ExecutionConfig config;
  config.seed = 0xB17D;
  config.corrupted = corrupted;
  const auto result = sim::run_execution(proto, params, inputs, adv, config);
  return broadcast::extract_announced(result, corrupted);
}

TEST(ChannelBinding, SeqBroadcastIgnoresP2pAnnouncement) {
  // Corrupted party 2 "announces" 1 in its slot, but only to party 0.
  protocols::SeqBroadcastProtocol proto;
  P2pInjector adv(/*round=*/2, protocols::kSeqAnnounceTag, Bytes{1}, /*target=*/0);
  const auto announced = run(proto, BitVec::from_string("1101"), adv, {2});
  ASSERT_TRUE(announced.consistent) << "p2p announcement split honest views";
  EXPECT_FALSE(announced.w.get(2)) << "p2p announcement must not count";
}

TEST(ChannelBinding, GennaroIgnoresP2pCommitments) {
  // A syntactically valid commitment vector injected p2p to one party must
  // not create a per-party commitment view.
  protocols::GennaroProtocol proto;
  crypto::PedersenVss vss;
  crypto::HmacDrbg drbg(1, "binding");
  const auto deal = vss.deal(crypto::Zq(1, vss.group().q()), 1, 4, drbg);
  P2pInjector adv(/*round=*/0, protocols::kVssCommitTag,
                  crypto::encode_group_elements(deal.commitments), /*target=*/1);
  const auto announced = run(proto, BitVec::from_string("1111"), adv, {2});
  ASSERT_TRUE(announced.consistent);
  EXPECT_FALSE(announced.w.get(2));
}

TEST(ChannelBinding, GennaroIgnoresP2pReveals) {
  // Reveal-phase shares are broadcast; injecting one p2p must not give a
  // single party extra reconstruction material.
  protocols::GennaroProtocol proto;
  P2pInjector adv(/*round=*/3, protocols::kVssRevealTag, Bytes(24, 0x5a), /*target=*/0);
  const auto announced = run(proto, BitVec::from_string("1111"), adv, {2});
  ASSERT_TRUE(announced.consistent);
}

TEST(ChannelBinding, FuzzRegressionSeqBroadcastHighIntensity) {
  // The exact configuration that exposed the bug.
  protocols::SeqBroadcastProtocol proto;
  simulcast::stats::Rng rng(0xF023);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BitVec inputs(4);
    for (std::size_t i = 0; i < 4; ++i) inputs.set(i, rng.bit());
    FuzzAdversary adv({protocols::kSeqAnnounceTag}, 10);
    sim::ProtocolParams params;
    params.n = 4;
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = {2};
    const auto result = sim::run_execution(proto, params, inputs, adv, config);
    EXPECT_TRUE(result.honest_outputs_consistent({2})) << "seed " << seed;
  }
}

}  // namespace
}  // namespace simulcast::adversary
