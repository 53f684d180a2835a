// Commit-phase non-malleability of the VSS protocols: copying or mauling
// an honest dealer's public commitments cannot yield a related announced
// value - the copier ends at the footnote-2 default 0.
#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "protocols/chor_rabin.h"
#include "protocols/vss_core.h"
#include "sim/network.h"

namespace simulcast::protocols {
namespace {

/// Re-broadcasts the victim dealer's commitment vector as the corrupted
/// party's own deal (and optionally echoes the victim's PoK messages).
/// Without the private shares the copier can neither distribute verifying
/// shares nor justify complaints, so disqualification must follow.
class CommitmentCopier final : public sim::Adversary {
 public:
  explicit CommitmentCopier(sim::PartyId victim, bool echo_pok)
      : victim_(victim), echo_pok_(echo_pok) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg&) override {
    corrupted_ = info.corrupted;
  }

  void on_round(sim::Round /*round*/, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override {
    const sim::PartyId me = corrupted_.front();
    for (const sim::Message& m : view.rushed) {
      if (m.from != victim_ || m.to != sim::kBroadcast) continue;
      if (m.tag == kVssCommitTag) sender.broadcast(me, kVssCommitTag, m.payload);
      if (echo_pok_ && (m.tag == kPokCommitTag || m.tag == kPokResponseTag))
        sender.broadcast(me, m.tag, m.payload);
    }
  }

 private:
  sim::PartyId victim_;
  bool echo_pok_;
  std::vector<sim::PartyId> corrupted_;
};

class VssMalleabilityTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<sim::ParallelBroadcastProtocol> proto_ = core::make_protocol(GetParam());

  broadcast::Announced run(const BitVec& inputs, sim::Adversary& adv,
                           std::vector<sim::PartyId> corrupted, std::uint64_t seed) {
    sim::ProtocolParams params;
    params.n = inputs.size();
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = corrupted;
    const auto result = sim::run_execution(*proto_, params, inputs, adv, config);
    return broadcast::extract_announced(result, corrupted);
  }
};

TEST_P(VssMalleabilityTest, CopiedCommitmentsAreDisqualified) {
  for (const bool victim_bit : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      CommitmentCopier adv(0, /*echo_pok=*/false);
      BitVec inputs = BitVec::from_string("0110");
      inputs.set(0, victim_bit);
      const auto announced = run(inputs, adv, {2}, seed);
      ASSERT_TRUE(announced.consistent) << "seed " << seed;
      EXPECT_FALSE(announced.w.get(2))
          << "commitment copier must be announced 0, not the victim's bit";
      EXPECT_EQ(announced.w.get(0), victim_bit) << "victim untouched";
    }
  }
}

TEST_P(VssMalleabilityTest, CopiedCommitmentsWithEchoedPokStillDisqualified) {
  // Chor-Rabin specific in spirit (the PoK is there to kill exactly this),
  // but echoing PoK transcripts must be harmless everywhere: the copier's
  // PoK rounds differ from the victim's batch, or the echoed response
  // answers the wrong joint challenge.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CommitmentCopier adv(0, /*echo_pok=*/true);
    const auto announced = run(BitVec::from_string("1110"), adv, {2}, seed);
    ASSERT_TRUE(announced.consistent) << "seed " << seed;
    EXPECT_FALSE(announced.w.get(2));
    EXPECT_TRUE(announced.w.get(0));
  }
}

INSTANTIATE_TEST_SUITE_P(VssProtocols, VssMalleabilityTest,
                         ::testing::Values("cgma", "chor-rabin", "gennaro"),
                         [](const auto& vm_info) {
                           std::string s(vm_info.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(ChorRabinPok, ForgedResponseWithoutWitnessFails) {
  // A corrupted dealer that deals garbage commitments it has no witness
  // for (a fresh random subgroup element as C_0) cannot answer the joint
  // challenge: disqualified during the commit phase.
  class NoWitnessDealer final : public sim::Adversary {
   public:
    void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
      corrupted_ = info.corrupted;
      drbg_ = &drbg;
    }
    void on_round(sim::Round round, const sim::AdversaryView&,
                  sim::AdversarySender& sender) override {
      const auto& group = crypto::SchnorrGroup::standard();
      const sim::PartyId me = corrupted_.front();
      if (round == 0) {
        // Commitments with unknown representation: h^r for random r.
        std::vector<std::uint64_t> commitments;
        const auto schedule = protocols::ChorRabinProtocol::schedule(4);
        for (std::size_t j = 0; j <= schedule.threshold; ++j)
          commitments.push_back(group.exp(group.h(), group.sample_exponent(*drbg_)));
        sender.broadcast(me, kVssCommitTag, crypto::encode_group_elements(commitments));
      }
      // Sends random sigma messages in its PoK rounds - they cannot verify.
      const auto schedule = protocols::ChorRabinProtocol::schedule(4);
      const PokRounds& mine = (*schedule.pok)[me];
      if (round == mine.commit) {
        ByteWriter w;
        w.u64(group.exp_g(group.sample_exponent(*drbg_)));
        sender.broadcast(me, kPokCommitTag, w.take());
      }
      if (round == mine.response) {
        ByteWriter w;
        w.u64(group.exp_g(group.sample_exponent(*drbg_)));
        w.u64(drbg_->below(group.q()));
        w.u64(drbg_->below(group.q()));
        sender.broadcast(me, kPokResponseTag, w.take());
      }
    }
    std::vector<sim::PartyId> corrupted_;
    crypto::HmacDrbg* drbg_ = nullptr;
  };

  const auto proto = core::make_protocol("chor-rabin");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NoWitnessDealer adv;
    sim::ProtocolParams params;
    params.n = 4;
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = {1};
    const auto result =
        sim::run_execution(*proto, params, BitVec::from_string("1111"), adv, config);
    const auto announced = broadcast::extract_announced(result, {1});
    ASSERT_TRUE(announced.consistent) << "seed " << seed;
    EXPECT_FALSE(announced.w.get(1)) << "PoK-less dealer must be disqualified";
  }
}

}  // namespace
}  // namespace simulcast::protocols
