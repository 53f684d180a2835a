// Property: kill -9 == scheduled crash, everywhere.
//
// 100 random (execution seed, crash party, kill round) triples across the
// cheap registered protocols: SIGKILLing a party's worker process the
// moment its machine starts the kill round (the net::KillProtocol wrapper
// of kill_protocol.h) must produce an execution bit-identical to the
// in-process scheduler running the same seed under a sim::FaultPlan crash
// of the same party at the same round — outputs, crash list, and all nine
// traffic counters.  On top of the equivalence, the fault-layer invariants
// (DESIGN.md section 9) must keep holding on the process side: the dead
// party has no output, crash accounting is coherent, and every pair of
// survivors that produced output agrees.
//
// Failures print a one-line reproducer in the prop.h convention
// (master_seed / index / exec_seed) so CI failures replay exactly.
//
// Custom main: a re-exec'd worker runs this binary, so worker dispatch
// must precede gtest, after installing a resolver that hosts the kill
// wrapper in front of the core registry.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <string>
#include <vector>

#include "../net/kill_protocol.h"
#include "adversary/adversaries.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "prop.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::props {
namespace {

constexpr std::uint64_t kMasterSeed = 0x9C05;
constexpr std::size_t kTriples = 100;
constexpr std::size_t kParties = 4;

std::unique_ptr<sim::ParallelBroadcastProtocol> resolve(std::string_view name) {
  if (auto killer = net::resolve_kill(name, &core::make_protocol)) return killer;
  return core::make_protocol(name);
}

TEST(ProcessCrashProperty, KilledWorkerEqualsScheduledCrash) {
  // Cheap protocols keep 100 triples x 2 executions (one of them spawning
  // kParties worker processes) in property-suite budget.
  const std::vector<std::string> protocols = {"gennaro", "cgma", "naive-commit-reveal"};
  static const crypto::HashCommitmentScheme scheme;
  const stats::Rng master(kMasterSeed);

  for (std::size_t i = 0; i < kTriples; ++i) {
    const auto proto = core::make_protocol(protocols[i % protocols.size()]);
    const std::size_t rounds = proto->rounds(kParties);
    stats::Rng triple_rng = master.fork("triple", i);
    const std::uint64_t exec_seed = master.fork("exec", i)();
    const std::size_t crash_party = triple_rng.below(kParties);
    const std::size_t kill_round = triple_rng.below(rounds);
    const std::string reproducer =
        "reproducer: master_seed=" + std::to_string(kMasterSeed) + " index=" +
        std::to_string(i) + " exec_seed=" + std::to_string(exec_seed) + " protocol=" +
        proto->name() + " crash=" + std::to_string(crash_party) + "@" +
        std::to_string(kill_round);

    // Inputs are a pure function of the execution seed, so the reproducer
    // line replays the whole triple.
    stats::Rng input_rng(exec_seed);
    BitVec inputs(kParties);
    for (std::size_t b = 0; b < kParties; ++b) inputs.set(b, input_rng.bit());

    sim::ProtocolParams params;
    params.n = kParties;
    params.commitments = &scheme;

    adversary::SilentAdversary scheduled_adv;
    sim::ExecutionConfig scheduled_config;
    scheduled_config.seed = exec_seed;
    scheduled_config.faults.crashes.push_back({crash_party, kill_round});
    const sim::ExecutionResult scheduled =
        sim::run_execution(*proto, params, inputs, scheduled_adv, scheduled_config);

    const net::KillProtocol killer(core::make_protocol(proto->name()), crash_party, kill_round);
    adversary::SilentAdversary killed_adv;
    sim::ExecutionConfig killed_config;
    killed_config.seed = exec_seed;
    killed_config.transport = net::TransportKind::kProcess;
    const sim::ExecutionResult killed =
        sim::run_execution(killer, params, inputs, killed_adv, killed_config);

    // Bit-for-bit equivalence of every observable.
    ASSERT_EQ(killed.outputs, scheduled.outputs) << reproducer;
    ASSERT_EQ(killed.adversary_output, scheduled.adversary_output) << reproducer;
    ASSERT_EQ(killed.rounds, scheduled.rounds) << reproducer;
    ASSERT_EQ(killed.crashed, scheduled.crashed) << reproducer;
    ASSERT_EQ(traffic_diff(killed.traffic, scheduled.traffic), "") << reproducer;

    // PR 4 fault-layer invariants on the process side.
    ASSERT_EQ(killed.crashed, (std::vector<sim::PartyId>{crash_party})) << reproducer;
    ASSERT_EQ(killed.traffic.crashed, 1u) << reproducer;
    ASSERT_FALSE(killed.outputs[crash_party].has_value())
        << reproducer << ": crashed party produced an output";
    const BitVec* first = nullptr;
    for (std::size_t id = 0; id < kParties; ++id) {
      if (!killed.outputs[id].has_value()) continue;
      if (first == nullptr)
        first = &*killed.outputs[id];
      else
        ASSERT_EQ(*killed.outputs[id], *first)
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
  simulcast::sim::set_worker_protocol_resolver(&simulcast::props::resolve);
  if (const int worker_rc = simulcast::sim::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
