// Integration tests of the four independence testers against the known
// ground truth of the paper's constructions: these are the test-suite
// versions of experiments E4-E7.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::testers {
namespace {

constexpr std::uint64_t kSeed = 20260706;

exec::RunSpec make_spec(const sim::ParallelBroadcastProtocol& proto, std::size_t n,
                        std::vector<sim::PartyId> corrupted, adversary::AdversaryFactory factory) {
  exec::RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.corrupted = std::move(corrupted);
  spec.adversary = std::move(factory);
  return spec;
}

// ---------------------------------------------------------------- CR tester

TEST(CrTester, GennaroUnderPassiveIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {2}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 1500, kSeed).samples;
  EXPECT_DOUBLE_EQ(consistency_rate(samples), 1.0);
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << v.max_gap << " at predicate " << v.worst.predicate;
}

TEST(CrTester, FlawedPiGUnderParityAdversaryIsViolated) {
  // Lemma 6.4's CR half: the parity predicate shows gap ~ 1/4 on uniform.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 2000, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_FALSE(v.independent);
  EXPECT_NEAR(v.max_gap, 0.25, 0.05);
  EXPECT_EQ(v.worst.predicate, "parity==0");
}

TEST(CrTester, SeqBroadcastUnderCopyIsViolated) {
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 1500, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_FALSE(v.independent);
  EXPECT_GT(v.max_gap, 0.2);
}

TEST(CrTester, SingletonDistributionIsVacuouslyIndependent) {
  // Prop. 6.3, CR half: on a singleton, Pr[W_i = 0] is 0 or 1, so the CR
  // quantity degenerates - even the copy adversary passes.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const dist::SingletonEnsemble ens(BitVec::from_string("1011"));
  const auto samples = exec::Runner().run_batch(spec, ens, 800, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

TEST(CrTester, RequiresSamplesAndHonestParties) {
  EXPECT_THROW((void)test_cr({}, {}), UsageError);
  std::vector<exec::Sample> one(1);
  one[0].announced = BitVec(2);
  EXPECT_THROW((void)test_cr(one, {0, 1}), UsageError);
}

// ----------------------------------------------------------------- G tester

TEST(GTester, FlawedPiGUnderParityAdversaryIsIndependent) {
  // Lemma 6.4's G half: each corrupted coordinate is an unbiased coin
  // whatever the honest announced vector is.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 4000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
  EXPECT_GT(v.pairs_tested, 0u);
}

TEST(GTester, SelectiveAbortOnNaiveCommitRevealIsViolated) {
  static const crypto::HashCommitmentScheme scheme;
  const auto proto = core::make_protocol("naive-commit-reveal");
  auto spec = make_spec(*proto, 4, {3}, adversary::selective_abort_factory(0, scheme));
  spec.params.commitments = &scheme;
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 3000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_FALSE(v.independent) << core::describe(v);
  EXPECT_GT(v.worst.gap, 0.8);  // W_3 tracks the victim's bit exactly
}

TEST(GTester, GennaroUnderPassiveIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {1}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 3000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

TEST(GTester, RequiresCorruptedParties) {
  std::vector<exec::Sample> s(1);
  s[0].announced = BitVec(3);
  EXPECT_THROW((void)test_g(s, {}), UsageError);
}

// --------------------------------------------------------------- G** tester

TEST(GssTester, FlawedPiGUnderParityAdversaryIsIndependent) {
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const GssVerdict v = test_gstarstar(spec, 300, kSeed);
  EXPECT_TRUE(v.independent) << core::describe(v);
  EXPECT_GT(v.executions, 0u);
}

TEST(GssTester, SeqBroadcastUnderCopyIsViolated) {
  // Fixed-input detection of the copy: flipping the victim's input flips
  // the copier's announced bit with certainty.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const GssVerdict v = test_gstarstar(spec, 100, kSeed);
  EXPECT_FALSE(v.independent);
  EXPECT_GT(v.max_gap, 0.9);
  EXPECT_EQ(v.worst.party, 3u);
}

TEST(GssTester, PassiveGennaroIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {1}, adversary::passive_factory(*proto, params));
  const GssVerdict v = test_gstarstar(spec, 150, kSeed);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

// The sweep holds all its Samples at once, so its width is capped: the
// limit runs, one more honest party is refused before anything runs.
TEST(GssTester, HonestPartyLimitBoundsTheSweep) {
  const auto proto = core::make_protocol("seq-broadcast");
  const auto at_limit =
      make_spec(*proto, kGssMaxHonestParties + 1, {0}, adversary::silent_factory());
  EXPECT_EQ(test_gstarstar(at_limit, 1, kSeed).executions, 2u << kGssMaxHonestParties);
  const auto above = make_spec(*proto, kGssMaxHonestParties + 2, {0}, adversary::silent_factory());
  EXPECT_THROW((void)test_gstarstar(above, 1, kSeed), UsageError);
}

/// Runs `call`, which must throw UsageError("`message`") without running a
/// batch: the ledger neither counts an execution nor gains a campaign.
template <class Call>
void expect_refused_before_sampling(Call call, const std::string& message) {
  exec::clear_ledger();
  try {
    call();
    ADD_FAILURE() << "expected UsageError: " << message;
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
  const exec::Ledger after = exec::ledger();
  EXPECT_TRUE(after.campaigns.empty());
  EXPECT_EQ(after.report.executions, 0u);
}

TEST(GssTester, ZeroSamplesIsRefusedBeforeSampling) {
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  expect_refused_before_sampling([&] { (void)test_gstarstar(spec, 0, kSeed); },
                                 "test_gstarstar: zero samples per input");
}

// ---------------------------------------------------------------- Sb tester

TEST(SbTester, GennaroUnderPassiveIsSimulatable) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {2}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  const SbVerdict v = test_sb(spec, *ens, 800, kSeed);
  EXPECT_TRUE(v.secure) << core::describe(v);
}

TEST(SbTester, SeqBroadcastUnderCopyIsViolated) {
  // Prop. 6.3's Sb half: the copy detector distinguishes real from ideal
  // with advantage ~ 1/2 on uniform inputs.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const auto ens = dist::make_uniform(4);
  const SbVerdict v = test_sb(spec, *ens, 800, kSeed);
  EXPECT_FALSE(v.secure);
  EXPECT_GT(v.max_distinguisher_gap, 0.3);
  EXPECT_EQ(v.worst.distinguisher, "W3==x0");
}

TEST(SbTester, FlawedPiGUnderParityAdversaryIsViolated) {
  // Π_G fails the strongest notion too: in the ideal world the sandbox's
  // honest inputs are all 0, so the parity rigging is detectable.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  const SbVerdict v = test_sb(spec, *ens, 800, kSeed);
  EXPECT_FALSE(v.secure) << core::describe(v);
}

TEST(SbTester, PartyLimitIsCheckedBeforeSampling) {
  // The joint (x, W) takes 2n bits: n = 32 is the largest that fits one
  // BitVec, and n = 33 is refused up front instead of failing in the
  // histogram after every execution has run.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto at_limit = make_spec(*proto, kSbMaxParties, {}, adversary::silent_factory());
  EXPECT_NO_THROW((void)test_sb(at_limit, *dist::make_uniform(kSbMaxParties), 2, kSeed));
  const auto beyond = make_spec(*proto, kSbMaxParties + 1, {}, adversary::silent_factory());
  EXPECT_THROW((void)test_sb(beyond, *dist::make_uniform(kSbMaxParties + 1), 2, kSeed),
               UsageError);
}

TEST(SbTester, ZeroSamplesIsRefusedBeforeSampling) {
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const auto ens = dist::make_uniform(4);
  expect_refused_before_sampling([&] { (void)test_sb(spec, *ens, 0, kSeed); },
                                 "test_sb: zero samples");
}

// ------------------------------------------------------------- the one rule
//
// Each verdict spends kAlpha over the estimates it union-bounds; these
// pin one radius per verdict to the bits it has always had, so a drift in
// a count, in the split or in kAlpha fails here before it moves a record.

std::vector<exec::Sample> repeated(std::vector<exec::Sample> samples, const char* announced,
                                   std::size_t count) {
  exec::Sample sample;
  sample.announced = BitVec::from_string(announced);
  samples.insert(samples.end(), count, sample);
  return samples;
}

TEST(OneRule, CrRadiusIsPinned) {
  // 3 estimates for each of 3 honest parties x 19 predicates over 4 bits
  // (E4's uniform rows).
  const CrVerdict v = test_cr(repeated({}, "00000", 4000), {1, 3});
  EXPECT_EQ(v.radius, 0.10837425219318486);
}

TEST(OneRule, GRadiusIsPinned) {
  // Two usable conditionings (00 and 11) for 2 corrupted parties: 2^2 x 2
  // estimates.  The 49 samples of honest vector 10 fall below the floor.
  auto samples = repeated({}, "0000", 100);
  samples = repeated(std::move(samples), "1111", 60);
  samples = repeated(std::move(samples), "1000", 49);
  const GVerdict v = test_g(samples, {2, 3});
  EXPECT_EQ(v.pairs_tested, 2u);
  EXPECT_EQ(v.worst.gap, 1.0);
  EXPECT_EQ(v.worst.radius, 0.46022497841030796);
}

TEST(OneRule, GssRadiusIsPinned) {
  // |w| = 2 x 2 corrupted x 4^3 honest pairs, 250 executions per input
  // (E4's G** cell).
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::silent_factory());
  EXPECT_EQ(test_gstarstar(spec, 250, kSeed).radius, 0.30379785373287344);
}

TEST(OneRule, SbRadiusIsPinned) {
  // 8 distinguishers at n = 4 with one corrupted party, 400 samples per
  // world (E5's Sb cells).
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::silent_factory());
  EXPECT_EQ(test_sb(spec, *dist::make_uniform(4), 400, kSeed).radius, 0.20088437083043342);
}

TEST(OneRule, GStarThresholdIsPinned) {
  // bench_e8_gstar's G* threshold: 64 inputs x 2 corrupted coordinates,
  // 200 executions on each side, plus the margin.
  EXPECT_EQ(stats::Budget(kAlpha, 64 * 2).diff_radius(200, 200) + kMargin, 0.34929462204882117);
}

}  // namespace
}  // namespace simulcast::testers
