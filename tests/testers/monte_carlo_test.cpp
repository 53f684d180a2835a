#include "testers/monte_carlo.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include <set>
#include "core/registry.h"

namespace simulcast::testers {
namespace {

exec::RunSpec gennaro_spec(const sim::ParallelBroadcastProtocol& proto, std::size_t n,
                     std::vector<sim::PartyId> corrupted,
                     adversary::AdversaryFactory factory) {
  exec::RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.corrupted = std::move(corrupted);
  spec.adversary = std::move(factory);
  return spec;
}

TEST(MonteCarlo, CollectsRequestedSampleCount) {
  const auto proto = core::make_protocol("gennaro");
  const auto spec = gennaro_spec(*proto, 4, {}, adversary::silent_factory());
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 25, 1).samples;
  EXPECT_EQ(samples.size(), 25u);
}

TEST(MonteCarlo, HonestRunsAreConsistentAndCorrect) {
  const auto proto = core::make_protocol("gennaro");
  const auto spec = gennaro_spec(*proto, 4, {}, adversary::silent_factory());
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 50, 2).samples;
  EXPECT_DOUBLE_EQ(consistency_rate(samples), 1.0);
  for (const exec::Sample& s : samples) EXPECT_EQ(s.announced, s.inputs);
}

TEST(MonteCarlo, DeterministicForSeed) {
  const auto proto = core::make_protocol("gennaro");
  const auto spec = gennaro_spec(*proto, 4, {}, adversary::silent_factory());
  const auto ens = dist::make_uniform(4);
  const auto s1 = exec::Runner().run_batch(spec, *ens, 10, 42).samples;
  const auto s2 = exec::Runner().run_batch(spec, *ens, 10, 42).samples;
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(s1[i].inputs, s2[i].inputs);
    EXPECT_EQ(s1[i].announced, s2[i].announced);
  }
}

TEST(MonteCarlo, InputsVaryAcrossRepetitions) {
  const auto proto = core::make_protocol("gennaro");
  const auto spec = gennaro_spec(*proto, 4, {}, adversary::silent_factory());
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 40, 3).samples;
  std::set<std::uint64_t> distinct;
  for (const exec::Sample& s : samples) distinct.insert(s.inputs.packed());
  EXPECT_GT(distinct.size(), 5u);
}

TEST(MonteCarlo, FixedInputVariantPinsInputs) {
  const auto proto = core::make_protocol("gennaro");
  const auto spec = gennaro_spec(*proto, 4, {}, adversary::silent_factory());
  const BitVec input = BitVec::from_string("1010");
  const auto samples = exec::Runner().run_batch(spec, input, 20, 4).samples;
  for (const exec::Sample& s : samples) {
    EXPECT_EQ(s.inputs, input);
    EXPECT_EQ(s.announced, input);
  }
}

TEST(MonteCarlo, FixedInputProtocolRandomnessVaries) {
  // Under the parity adversary, W_1 is a fresh coin each repetition even
  // for a fixed input - the per-repetition seed fork must reach the
  // functionality's randomness.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = gennaro_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto samples =
      exec::Runner().run_batch(spec, BitVec::from_string("10101"), 100, 5).samples;
  std::size_t ones = 0;
  for (const exec::Sample& s : samples) ones += s.announced.get(1) ? std::size_t{1} : std::size_t{0};
  EXPECT_GT(ones, 25u);
  EXPECT_LT(ones, 75u);
}

TEST(MonteCarlo, ConsistencyRateRejectsEmptySampleSet) {
  // 0.0 for an empty set would read as "always inconsistent".
  EXPECT_THROW((void)consistency_rate({}), UsageError);
}

TEST(MonteCarlo, Validation) {
  const auto proto = core::make_protocol("gennaro");
  exec::RunSpec null_spec;
  const auto ens = dist::make_uniform(4);
  EXPECT_THROW((void)exec::Runner().run_batch(null_spec, *ens, 1, 1), UsageError);
  auto spec = gennaro_spec(*proto, 5, {}, adversary::silent_factory());
  EXPECT_THROW((void)exec::Runner().run_batch(spec, *ens, 1, 1), UsageError);  // width 4 != n 5
  EXPECT_THROW((void)exec::Runner().run_batch(spec, BitVec(4), 1, 1), UsageError);
}

}  // namespace
}  // namespace simulcast::testers
