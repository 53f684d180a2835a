// Property-based invariants of the fault-injection layer, swept per
// registered protocol over hundreds of randomized fault schedules
// (tests/props/prop.h).  Three families:
//
//  - safety under arbitrary plans: run_execution always returns (never
//    hangs), outputs and fault accounting stay coherent, and degraded
//    executions surface loudly (nullopt outputs, consistent = false) —
//    never as silent corruption;
//  - crash-only plans within the protocol's resilience bound: surviving
//    honest parties that produced output agree;
//  - fault-free and inert plans reproduce the pinned golden outputs of the
//    faultless scheduler byte for byte.
//
// Every failure prints a reproducer (master seed, schedule index, exec
// seed) plus the shrunk minimal plan.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "prop.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::props {
namespace {

/// One sweep per protocol; seq-broadcast-ds runs n Dolev-Strong instances
/// with Lamport signatures, so it gets a smaller n to keep the suite fast.
///
/// The name is stored inline, not as a std::string: gtest prints a parameter
/// without operator<< as its raw bytes, and those bytes become part of the
/// registered test names.  A std::string would put an ASLR-randomized heap
/// pointer and uninitialized small-buffer bytes there, so the names would
/// change from one build to the next.
struct ProtoCase {
  char name[32] = {};
  std::size_t n = 0;
};

std::vector<ProtoCase> proto_cases() {
  std::vector<ProtoCase> cases;
  for (const std::string& name : core::protocol_names()) {
    ProtoCase c;
    if (name.size() >= sizeof c.name)
      throw std::length_error("protocol name too long for ProtoCase: " + name);
    name.copy(c.name, name.size());
    c.n = name == "seq-broadcast-ds" ? 3 : 4;
    cases.push_back(c);
  }
  return cases;
}

constexpr std::uint64_t kMasterSeed = 0xFA017;
constexpr std::size_t kSweepCount = 200;

class FaultInvariantsTest : public ::testing::TestWithParam<ProtoCase> {
 protected:
  std::unique_ptr<sim::ParallelBroadcastProtocol> proto_ =
      core::make_protocol(GetParam().name);
  std::size_t n_ = GetParam().n;

  sim::ProtocolParams params() const {
    sim::ProtocolParams p;
    p.n = n_;
    return p;
  }

  /// Inputs are a pure function of the execution seed, so a reproducer
  /// (seed + plan) replays the whole schedule.
  BitVec inputs_for(std::uint64_t seed) const {
    stats::Rng rng(seed);
    BitVec inputs(n_);
    for (std::size_t i = 0; i < n_; ++i) inputs.set(i, rng.bit());
    return inputs;
  }

  sim::ExecutionResult run(const sim::FaultPlan& plan, std::uint64_t seed,
                           bool record_trace = false) const {
    sim::ExecutionConfig config;
    config.seed = seed;
    config.faults = plan;
    config.record_trace = record_trace;
    adversary::SilentAdversary adv;
    return sim::run_execution(*proto_, params(), inputs_for(seed), adv, config);
  }
};

// ---------------------------------------------------------------- safety ----

TEST_P(FaultInvariantsTest, SafetyUnderArbitraryPlans) {
  PlanBounds bounds;  // drops + delays + crashes + partitions
  const auto check = [&](const sim::FaultPlan& plan, std::uint64_t seed) -> std::string {
    sim::ExecutionResult result;
    try {
      result = run(plan, seed);
    } catch (const std::exception& e) {
      return std::string("run_execution threw: ") + e.what();
    }
    if (result.outputs.size() != n_) return "outputs.size() != n";
    if (result.rounds != proto_->rounds(n_)) return "executed rounds != declared rounds";
    if (result.traffic.crashed != result.crashed.size())
      return "crashed counter disagrees with crashed party list";
    if (result.crashed.size() > plan.crashes.size())
      return "more parties crashed than the plan scheduled";
    for (const sim::PartyId id : result.crashed)
      if (result.outputs[id].has_value()) return "crashed party produced an output";
    if (plan.drop_probability == 0.0 && plan.max_delay == 0 &&
        (result.traffic.dropped > 0 || result.traffic.delayed > 0))
      return "drop/delay counters nonzero without drop/delay faults";
    if (plan.partitions.empty() && result.traffic.blocked > 0)
      return "blocked counter nonzero without partitions";
    if (plan.crashes.empty() && result.traffic.crashed > 0)
      return "crash counter nonzero without crash faults";
    // Degradation must be loud, never silent: extraction reports the
    // consistency flag and never throws on mutilated executions.
    try {
      const broadcast::Announced announced = broadcast::extract_announced(result, {});
      if (announced.consistent) {
        for (std::size_t id = 0; id < n_; ++id)
          if (!result.outputs[id].has_value() || *result.outputs[id] != announced.w)
            return "consistent flag set but honest outputs disagree";
      }
    } catch (const std::exception& e) {
      return std::string("extract_announced threw: ") + e.what();
    }
    return "";
  };
  const auto failure = sweep(kMasterSeed, kSweepCount, n_, proto_->rounds(n_), bounds, check);
  if (failure) ADD_FAILURE() << failure->describe();
}

// ------------------------------------------------- crash-only consistency ----

TEST_P(FaultInvariantsTest, CrashesWithinResilienceKeepSurvivorsConsistent) {
  const std::size_t budget = proto_->max_corruptions(n_);
  if (budget == 0) GTEST_SKIP() << "no resilience budget at n=" << n_;
  PlanBounds bounds;
  bounds.crash_only = true;
  bounds.max_crashes = budget;
  const auto check = [&](const sim::FaultPlan& plan, std::uint64_t seed) -> std::string {
    sim::ExecutionResult result;
    try {
      result = run(plan, seed);
    } catch (const std::exception& e) {
      return std::string("run_execution threw: ") + e.what();
    }
    // A crash is weaker than a Byzantine corruption, so within the
    // corruption budget the surviving parties must not diverge: any two
    // survivors that produced output agree.  (A survivor failing loudly —
    // nullopt via ProtocolError — is graceful degradation, not divergence.)
    const BitVec* first = nullptr;
    for (std::size_t id = 0; id < n_; ++id) {
      if (!result.outputs[id].has_value()) continue;
      if (first == nullptr)
        first = &*result.outputs[id];
      else if (*result.outputs[id] != *first)
        return "surviving honest outputs diverge";
    }
    return "";
  };
  const auto failure = sweep(kMasterSeed + 1, kSweepCount, n_, proto_->rounds(n_), bounds, check);
  if (failure) ADD_FAILURE() << failure->describe();
}

// ------------------------------------------------ fault-free golden pins ----

/// Faultless observables per protocol at seed 2026, inputs 0101... —
/// regenerate only on an intentional scheduler change (these pin the
/// empty-plan path to the pre-fault-layer scheduler byte for byte).
struct Golden {
  const char* name;
  std::size_t n;
  std::size_t rounds;
  std::size_t messages;
  std::size_t wire_bytes;
  const char* announced;
};

// wire_bytes price every message at net::encoded_size (frame overhead +
// tag + payload), the schema-v6 accounting; the wire-v2 CRC32C trailer
// added 4 bytes per frame.
constexpr Golden kGolden[] = {
    {"seq-broadcast", 4, 4, 4, 216, "0101"},
    {"cgma", 4, 7, 36, 2808, "0101"},
    {"chor-rabin", 4, 10, 52, 3772, "0101"},
    {"gennaro", 4, 4, 36, 2808, "0101"},
    {"naive-commit-reveal", 4, 2, 8, 692, "0101"},
    {"flawed-pi-g", 4, 2, 8, 460, "0101"},
    {"flawed-pi-g-mpc", 4, 4, 56, 4972, "0101"},
    {"seq-broadcast-ds", 3, 12, 27, 835452, "010"},
};

TEST_P(FaultInvariantsTest, EmptyPlanReproducesGoldenOutputs) {
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden)
    if (std::string_view(GetParam().name) == g.name) golden = &g;
  ASSERT_NE(golden, nullptr) << "no golden row for " << GetParam().name
                             << " — a newly registered protocol needs one";
  ASSERT_EQ(golden->n, n_);

  sim::ProtocolParams p = params();
  BitVec inputs(n_);
  for (std::size_t i = 0; i < n_; ++i) inputs.set(i, i % 2 == 1);
  adversary::SilentAdversary adv;
  sim::ExecutionConfig config;
  config.seed = 2026;
  const sim::ExecutionResult result = sim::run_execution(*proto_, p, inputs, adv, config);
  const broadcast::Announced announced = broadcast::extract_announced(result, {});

  EXPECT_EQ(result.rounds, golden->rounds);
  EXPECT_EQ(result.traffic.messages, golden->messages);
  EXPECT_EQ(result.traffic.wire_bytes, golden->wire_bytes);
  ASSERT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w, BitVec::from_string(golden->announced));
  EXPECT_EQ(result.traffic.dropped, 0u);
  EXPECT_EQ(result.traffic.delayed, 0u);
  EXPECT_EQ(result.traffic.blocked, 0u);
  EXPECT_EQ(result.traffic.crashed, 0u);
  EXPECT_TRUE(result.crashed.empty());
}

/// A nonempty plan whose every fault is inert (zero rates, an empty
/// partition window) must still match the faultless run byte for byte: the
/// fault DRBG is never instantiated and no delivery is touched.
TEST_P(FaultInvariantsTest, InertPlanIsByteIdenticalToEmptyPlan) {
  const std::uint64_t seed = 77;
  const sim::ExecutionResult baseline = run(sim::FaultPlan{}, seed, /*record_trace=*/true);

  sim::FaultPlan inert;
  inert.partitions.push_back({{0}, 2, 2});  // [2, 2) blocks nothing
  ASSERT_FALSE(inert.empty());
  const sim::ExecutionResult faulty = run(inert, seed, /*record_trace=*/true);

  ASSERT_EQ(baseline.outputs.size(), faulty.outputs.size());
  for (std::size_t id = 0; id < baseline.outputs.size(); ++id)
    EXPECT_EQ(baseline.outputs[id], faulty.outputs[id]) << "party " << id;
  EXPECT_EQ(baseline.adversary_output, faulty.adversary_output);
  EXPECT_EQ(baseline.traffic.messages, faulty.traffic.messages);
  EXPECT_EQ(baseline.traffic.wire_bytes, faulty.traffic.wire_bytes);
  EXPECT_EQ(faulty.traffic.dropped, 0u);
  EXPECT_EQ(faulty.traffic.blocked, 0u);
  ASSERT_EQ(baseline.trace.size(), faulty.trace.size());
  for (std::size_t r = 0; r < baseline.trace.size(); ++r) {
    ASSERT_EQ(baseline.trace[r].size(), faulty.trace[r].size()) << "round " << r;
    for (std::size_t m = 0; m < baseline.trace[r].size(); ++m) {
      EXPECT_EQ(baseline.trace[r][m].from, faulty.trace[r][m].from);
      EXPECT_EQ(baseline.trace[r][m].to, faulty.trace[r][m].to);
      EXPECT_EQ(baseline.trace[r][m].tag, faulty.trace[r][m].tag);
      EXPECT_EQ(baseline.trace[r][m].payload, faulty.trace[r][m].payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FaultInvariantsTest,
                         ::testing::ValuesIn(proto_cases()), [](const auto& param_info) {
                           std::string s = param_info.param.name;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// ----------------------------------------------------- harness self-tests ----

TEST(PropHarness, PlansAreAPureFunctionOfSeedAndIndex) {
  const stats::Rng master(99);
  PlanBounds bounds;
  for (std::size_t i = 0; i < 16; ++i) {
    stats::Rng a = master.fork("plan", i);
    stats::Rng b = master.fork("plan", i);
    const sim::FaultPlan pa = random_plan(a, 5, 8, bounds);
    const sim::FaultPlan pb = random_plan(b, 5, 8, bounds);
    EXPECT_EQ(pa.summary(), pb.summary()) << "index " << i;
    pa.validate(5);
  }
}

TEST(PropHarness, ShrinkFindsTheMinimalFailingPlan) {
  // The check fails iff party 2 crashes; the shrunk plan must contain just
  // that crash, with every other fault dimension stripped.
  const Check check = [](const sim::FaultPlan& plan, std::uint64_t) -> std::string {
    for (const sim::CrashFault& c : plan.crashes)
      if (c.party == 2) return "party 2 crashed";
    return "";
  };
  sim::FaultPlan failing;
  failing.drop_probability = 0.25;
  failing.max_delay = 2;
  failing.crashes = {{0, 1}, {2, 3}, {1, 0}};
  failing.partitions.push_back({{0, 1}, 0, 4});
  std::string message = "party 2 crashed";
  const sim::FaultPlan minimal = shrink(failing, 7, check, message);
  EXPECT_EQ(minimal.summary(), "crash=[2@3]");
  EXPECT_EQ(message, "party 2 crashed");
}

TEST(PropHarness, SweepReportsReproducerSeedOnFailure) {
  // Fail on every schedule whose plan carries at least one crash.
  const Check check = [](const sim::FaultPlan& plan, std::uint64_t) -> std::string {
    return plan.crashes.empty() ? "" : "has a crash";
  };
  PlanBounds bounds;
  const auto failure = sweep(42, 64, 4, 6, bounds, check);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->master_seed, 42u);
  const std::string text = failure->describe();
  EXPECT_NE(text.find("master_seed=42"), std::string::npos);
  EXPECT_NE(text.find("exec_seed="), std::string::npos);
  EXPECT_NE(text.find("minimal:"), std::string::npos);
  // The reproducer replays: the same (seed, index) regenerates the plan.
  const stats::Rng master(42);
  stats::Rng plan_rng = master.fork("plan", failure->index);
  const sim::FaultPlan replayed = random_plan(plan_rng, 4, 6, bounds);
  EXPECT_EQ(replayed.summary(), failure->plan.summary());
}

TEST(PropHarness, SweepPassesWhenEveryScheduleSatisfiesTheProperty) {
  const Check check = [](const sim::FaultPlan&, std::uint64_t) { return std::string(); };
  PlanBounds bounds;
  EXPECT_FALSE(sweep(7, 32, 4, 6, bounds, check).has_value());
}

}  // namespace
}  // namespace simulcast::props
