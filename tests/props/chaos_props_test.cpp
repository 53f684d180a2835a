// Properties of the wire-chaos layer (net/chaos.h, DESIGN.md section 15):
//
//  1. Recoverable chaos is invisible.  For random (execution seed, chaos
//     spec) pairs, a socket- or process-transport execution under loss,
//     duplication, reordering, delay and corruption must be bit-identical
//     to the clean in-process execution of the same seed — outputs,
//     adversary output, rounds, crash list, and all nine traffic counters.
//     The resilience machinery (CRC reject, seq dedup, ack/retransmit) is
//     allowed to cost wall clock, never results.
//
//  2. Budget exhaustion degrades into exactly a scheduled crash.  A spec
//     that pins certain loss on one party's channel at one round with a
//     zero retransmit budget (party:P,after:r+1,loss:1,budget:0 — record 0
//     is kBegin, record r+1 is kRound(r)) must reproduce the in-process
//     scheduler running a sim::FaultPlan crash of P at round r, and the
//     PR 4 fault-layer invariants must keep holding on the process side.
//
// Failures print a one-line reproducer in the prop.h convention
// (master_seed / index / exec_seed) so CI failures replay exactly.
//
// Custom main: a re-exec'd worker runs this binary, so worker dispatch
// must precede gtest.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <string>
#include <vector>

#include "adversary/adversaries.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "net/chaos.h"
#include "prop.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::props {
namespace {

constexpr std::uint64_t kMasterSeed = 0xC4A05;
constexpr std::size_t kParties = 4;

/// Recoverable conditions only: every dimension the resilience machinery
/// must absorb, none hostile enough to spend the default budget.
const char* const kRecoverableSpecs[] = {
    "loss:0.1",
    "dup:0.2,reorder:0.2:2",
    "corrupt:0.005",
    "delay:uniform:0:1,loss:0.05",
    "loss:0.2,dup:0.1,corrupt:0.002",
};

/// Runs one execution of `proto` on `inputs` with a silent adversary.
sim::ExecutionResult run_one(const sim::ParallelBroadcastProtocol& proto,
                             const sim::ProtocolParams& params,
                             const BitVec& inputs, const sim::ExecutionConfig& config) {
  adversary::SilentAdversary adv;
  return sim::run_execution(proto, params, inputs, adv, config);
}

/// Clean-vs-chaotic equivalence of every observable, `reproducer` on fail.
void assert_identical(const sim::ExecutionResult& chaotic, const sim::ExecutionResult& clean,
                      const std::string& reproducer) {
  ASSERT_EQ(chaotic.outputs, clean.outputs) << reproducer;
  ASSERT_EQ(chaotic.adversary_output, clean.adversary_output) << reproducer;
  ASSERT_EQ(chaotic.rounds, clean.rounds) << reproducer;
  ASSERT_EQ(chaotic.crashed, clean.crashed) << reproducer;
  const std::string diff = traffic_diff(chaotic.traffic, clean.traffic);
  ASSERT_EQ(diff, "") << reproducer;
}

TEST(ChaosProperty, RecoverableChaosIsInvisibleOnTheSocketBackend) {
  constexpr std::size_t kPairs = 15;
  const std::vector<std::string> protocols = {"gennaro", "cgma", "naive-commit-reveal"};
  static const crypto::HashCommitmentScheme scheme;
  const stats::Rng master(kMasterSeed);

  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto proto = core::make_protocol(protocols[i % protocols.size()]);
    const std::uint64_t exec_seed = master.fork("exec", i)();
    const char* spec = kRecoverableSpecs[i % std::size(kRecoverableSpecs)];
    const std::string reproducer =
        "reproducer: master_seed=" + std::to_string(kMasterSeed) + " index=" +
        std::to_string(i) + " exec_seed=" + std::to_string(exec_seed) + " protocol=" +
        proto->name() + " chaos=" + spec;

    stats::Rng input_rng(exec_seed);
    BitVec inputs(kParties);
    for (std::size_t b = 0; b < kParties; ++b) inputs.set(b, input_rng.bit());

    sim::ProtocolParams params;
    params.n = kParties;
    params.commitments = &scheme;

    sim::ExecutionConfig clean_config;
    clean_config.seed = exec_seed;
    const sim::ExecutionResult clean = run_one(*proto, params, inputs, clean_config);

    sim::ExecutionConfig chaos_config;
    chaos_config.seed = exec_seed;
    chaos_config.transport = net::TransportKind::kSocket;
    chaos_config.chaos = net::parse_chaos_spec(spec);
    const sim::ExecutionResult chaotic = run_one(*proto, params, inputs, chaos_config);

    assert_identical(chaotic, clean, reproducer);
    ASSERT_TRUE(chaotic.crashed.empty()) << reproducer;
  }
}

TEST(ChaosProperty, RecoverableChaosIsInvisibleOnTheProcessBackend) {
  // Process executions spawn kParties workers each, so this sweep stays
  // small; the socket sweep above carries the spec breadth.
  constexpr std::size_t kPairs = 4;
  static const crypto::HashCommitmentScheme scheme;
  const stats::Rng master(kMasterSeed);

  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto proto = core::make_protocol(i % 2 == 0 ? "cgma" : "gennaro");
    const std::uint64_t exec_seed = master.fork("proc-exec", i)();
    const char* spec = kRecoverableSpecs[i % std::size(kRecoverableSpecs)];
    const std::string reproducer =
        "reproducer: master_seed=" + std::to_string(kMasterSeed) + " index=" +
        std::to_string(i) + " exec_seed=" + std::to_string(exec_seed) + " protocol=" +
        proto->name() + " chaos=" + spec + " transport=process";

    stats::Rng input_rng(exec_seed);
    BitVec inputs(kParties);
    for (std::size_t b = 0; b < kParties; ++b) inputs.set(b, input_rng.bit());

    sim::ProtocolParams params;
    params.n = kParties;
    params.commitments = &scheme;

    sim::ExecutionConfig clean_config;
    clean_config.seed = exec_seed;
    const sim::ExecutionResult clean = run_one(*proto, params, inputs, clean_config);

    sim::ExecutionConfig chaos_config;
    chaos_config.seed = exec_seed;
    chaos_config.transport = net::TransportKind::kProcess;
    chaos_config.chaos = net::parse_chaos_spec(spec);
    const sim::ExecutionResult chaotic = run_one(*proto, params, inputs, chaos_config);

    assert_identical(chaotic, clean, reproducer);
    ASSERT_TRUE(chaotic.crashed.empty()) << reproducer;
  }

  int status = 0;
  errno = 0;
  ASSERT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  ASSERT_EQ(errno, ECHILD);
}

TEST(ChaosProperty, BudgetExhaustionEqualsScheduledCrash) {
  constexpr std::size_t kTriples = 8;
  const std::vector<std::string> protocols = {"gennaro", "cgma", "naive-commit-reveal"};
  static const crypto::HashCommitmentScheme scheme;
  const stats::Rng master(kMasterSeed);

  for (std::size_t i = 0; i < kTriples; ++i) {
    const auto proto = core::make_protocol(protocols[i % protocols.size()]);
    const std::size_t rounds = proto->rounds(kParties);
    stats::Rng triple_rng = master.fork("triple", i);
    const std::uint64_t exec_seed = master.fork("budget-exec", i)();
    const std::size_t crash_party = triple_rng.below(kParties);
    const std::size_t crash_round = triple_rng.below(rounds);
    // Certain loss on crash_party's channel from its kRound(crash_round)
    // record on (record 0 is kBegin), with no retransmit budget: the
    // channel dies the moment chaos engages.
    const std::string spec = "party:" + std::to_string(crash_party) + ",after:" +
                             std::to_string(crash_round + 1) + ",loss:1,budget:0";
    const std::string reproducer =
        "reproducer: master_seed=" + std::to_string(kMasterSeed) + " index=" +
        std::to_string(i) + " exec_seed=" + std::to_string(exec_seed) + " protocol=" +
        proto->name() + " chaos=" + spec;

    stats::Rng input_rng(exec_seed);
    BitVec inputs(kParties);
    for (std::size_t b = 0; b < kParties; ++b) inputs.set(b, input_rng.bit());

    sim::ProtocolParams params;
    params.n = kParties;
    params.commitments = &scheme;

    sim::ExecutionConfig scheduled_config;
    scheduled_config.seed = exec_seed;
    scheduled_config.faults.crashes.push_back({crash_party, crash_round});
    const sim::ExecutionResult scheduled = run_one(*proto, params, inputs, scheduled_config);

    sim::ExecutionConfig starved_config;
    starved_config.seed = exec_seed;
    starved_config.transport = net::TransportKind::kProcess;
    starved_config.chaos = net::parse_chaos_spec(spec);
    const sim::ExecutionResult starved = run_one(*proto, params, inputs, starved_config);

    // The degradation path must be bit-for-bit the FaultPlan crash.
    assert_identical(starved, scheduled, reproducer);

    // PR 4 fault-layer invariants on the degraded side.
    ASSERT_EQ(starved.crashed, (std::vector<sim::PartyId>{crash_party})) << reproducer;
    ASSERT_EQ(starved.traffic.crashed, 1u) << reproducer;
    ASSERT_FALSE(starved.outputs[crash_party].has_value())
        << reproducer << ": budget-dead party produced an output";
    const BitVec* first = nullptr;
    for (std::size_t id = 0; id < kParties; ++id) {
      if (!starved.outputs[id].has_value()) continue;
      if (first == nullptr)
        first = &*starved.outputs[id];
      else
        ASSERT_EQ(*starved.outputs[id], *first)
            << reproducer << ": surviving honest outputs diverge";
    }
  }

  // The whole sweep must leave no zombie behind.
  int status = 0;
  errno = 0;
  ASSERT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  ASSERT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace simulcast::props

int main(int argc, char** argv) {
  if (const int worker_rc = simulcast::sim::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
