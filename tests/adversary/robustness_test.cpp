// Robustness suite: NO adversarial garbage may ever break the Definition
// 3.1 contract for honest parties - consistency must hold and honest
// coordinates must stay correct under arbitrary message spraying and
// verbatim replays, for every protocol.  (Corrupted coordinates may end up
// anywhere in {0, 1}; only the honest ones are pinned.)
#include <gtest/gtest.h>

#include "fuzz_adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::adversary {
namespace {

class RobustnessTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<sim::ParallelBroadcastProtocol> proto_ = core::make_protocol(GetParam());

  void check_contract(sim::Adversary& adv, const BitVec& inputs,
                      const std::vector<sim::PartyId>& corrupted, std::uint64_t seed) {
    sim::ProtocolParams params;
    params.n = inputs.size();
    sim::ExecutionConfig config;
    config.seed = seed;
    config.corrupted = corrupted;
    const auto result = sim::run_execution(*proto_, params, inputs, adv, config);
    const auto announced = broadcast::extract_announced(result, corrupted);
    ASSERT_TRUE(announced.consistent) << "seed " << seed;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool is_corrupted =
          std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
      if (!is_corrupted) {
        EXPECT_EQ(announced.w.get(i), inputs.get(i)) << "honest coordinate " << i;
      }
    }
  }
};

TEST_P(RobustnessTest, SurvivesMessageFuzzing) {
  stats::Rng rng(0xF022);
  const std::size_t n = 5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    BitVec inputs(n);
    for (std::size_t i = 0; i < n; ++i) inputs.set(i, rng.bit());
    FuzzAdversary adv(protocol_tags(GetParam()));
    check_contract(adv, inputs, {1, 3}, seed);
  }
}

TEST_P(RobustnessTest, SurvivesSingleFuzzerAtHigherIntensity) {
  stats::Rng rng(0xF023);
  const std::size_t n = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BitVec inputs(n);
    for (std::size_t i = 0; i < n; ++i) inputs.set(i, rng.bit());
    FuzzAdversary adv(protocol_tags(GetParam()), /*max_messages_per_round=*/10);
    check_contract(adv, inputs, {2}, seed);
  }
}

TEST_P(RobustnessTest, SurvivesVerbatimReplay) {
  stats::Rng rng(0xF024);
  const std::size_t n = 5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BitVec inputs(n);
    for (std::size_t i = 0; i < n; ++i) inputs.set(i, rng.bit());
    ReplayAdversary adv;
    check_contract(adv, inputs, {1, 3}, seed);
  }
}

std::vector<std::string> robustness_protocols() {
  std::vector<std::string> names;
  for (const std::string& name : core::protocol_names()) {
    if (name == "seq-broadcast-ds") continue;  // signature-heavy; covered by its own tests
    names.push_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RobustnessTest,
                         ::testing::ValuesIn(robustness_protocols()),
                         [](const auto& rb_info) {
                           std::string s = rb_info.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

}  // namespace
}  // namespace simulcast::adversary
