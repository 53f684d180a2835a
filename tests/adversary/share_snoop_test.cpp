#include <gtest/gtest.h>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "protocols/cgma.h"
#include "protocols/gennaro.h"
#include "sim/network.h"

namespace simulcast::adversary {
namespace {

broadcast::Announced run_cgma(const BitVec& inputs, sim::Adversary& adv,
                              std::vector<sim::PartyId> corrupted, bool private_channels,
                              std::uint64_t seed) {
  protocols::CgmaProtocol proto;
  sim::ProtocolParams params;
  params.n = inputs.size();
  sim::ExecutionConfig config;
  config.seed = seed;
  config.corrupted = corrupted;
  config.private_channels = private_channels;
  const auto result = sim::run_execution(proto, params, inputs, adv, config);
  return broadcast::extract_announced(result, corrupted);
}

TEST(ShareSnoop, CopiesVictimBitOnPublicChannels) {
  const auto schedule = protocols::CgmaProtocol::schedule(5);
  for (const bool victim_bit : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ShareSnoopAdversary adv(0, schedule);
      BitVec inputs = BitVec::from_string("01100");
      inputs.set(0, victim_bit);
      const auto announced = run_cgma(inputs, adv, {4}, /*private=*/false, seed);
      ASSERT_TRUE(announced.consistent);
      EXPECT_EQ(announced.w.get(4), victim_bit) << "seed " << seed;
      EXPECT_EQ(announced.w.get(0), victim_bit);
    }
  }
}

TEST(ShareSnoop, InertOnPrivateChannels) {
  const auto schedule = protocols::CgmaProtocol::schedule(5);
  for (const bool victim_bit : {false, true}) {
    ShareSnoopAdversary adv(0, schedule);
    BitVec inputs = BitVec::from_string("01100");
    inputs.set(0, victim_bit);
    const auto announced = run_cgma(inputs, adv, {4}, /*private=*/true, 3);
    ASSERT_TRUE(announced.consistent);
    EXPECT_FALSE(announced.w.get(4)) << "snooper should fall back to dealing 0";
    EXPECT_EQ(announced.w.get(0), victim_bit);
  }
}

TEST(ShareSnoop, InertOnPrivateChannelsAtFourParties) {
  // At n = 4, t + 1 = 2.  On private channels the snooper reads only the
  // victim's share to its own party, in the rushed view of the deal round;
  // counting it again when it is delivered a round later would make two
  // shares at one point, and reconstructing from them throws.
  const auto schedule = protocols::CgmaProtocol::schedule(4);
  for (const bool victim_bit : {false, true}) {
    ShareSnoopAdversary adv(0, schedule);
    BitVec inputs = BitVec::from_string("0110");
    inputs.set(0, victim_bit);
    const auto announced = run_cgma(inputs, adv, {3}, /*private=*/true, 2);
    ASSERT_TRUE(announced.consistent);
    EXPECT_FALSE(announced.w.get(3)) << "snooper should fall back to dealing 0";
    EXPECT_EQ(announced.w.get(0), victim_bit);
  }
}

TEST(ShareSnoop, HonestCoordinatesUntouched) {
  const auto schedule = protocols::CgmaProtocol::schedule(5);
  ShareSnoopAdversary adv(0, schedule);
  const BitVec inputs = BitVec::from_string("11011");
  const auto announced = run_cgma(inputs, adv, {4}, /*private=*/false, 9);
  ASSERT_TRUE(announced.consistent);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(announced.w.get(i), inputs.get(i));
}

TEST(ShareSnoop, RejectsParallelDealSchedules) {
  // Against Gennaro everyone deals simultaneously: there is no later slot
  // to copy into, and the adversary's precondition check must fire.
  const auto schedule = protocols::GennaroProtocol::schedule(5);
  ShareSnoopAdversary adv(0, schedule);
  protocols::GennaroProtocol proto;
  sim::ProtocolParams params;
  params.n = 5;
  sim::ExecutionConfig config;
  config.corrupted = {4};
  config.private_channels = false;
  EXPECT_THROW(
      (void)sim::run_execution(proto, params, BitVec::from_string("10101"), adv, config),
      UsageError);
}

TEST(ShareSnoop, RequiresCorruption) {
  const auto schedule = protocols::CgmaProtocol::schedule(5);
  ShareSnoopAdversary adv(0, schedule);
  EXPECT_THROW((void)run_cgma(BitVec(5), adv, {}, false, 1), UsageError);
}

}  // namespace
}  // namespace simulcast::adversary
