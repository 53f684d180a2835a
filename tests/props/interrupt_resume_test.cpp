// Property: resume(interrupt(run)) == run.
//
// 100 random (master seed, interrupt slot, thread count) triples, each
// under a randomly drawn non-empty FaultPlan: a batch interrupted at an
// arbitrary slot via the deterministic --stop-after trigger and then
// resumed from its checkpoint must be bit-identical — samples and
// canonical accounting — to the same batch run uninterrupted.  This is the
// engine's purity contract (DESIGN.md section 10) exercised at random
// interrupt points rather than the hand-picked ones of tests/exec.
//
// Failures print a one-line reproducer in the prop.h convention
// (master_seed / index / exec_seed) so CI failures replay exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/registry.h"
#include "crypto/commitment.h"
#include "exec/runner.h"
#include "prop.h"

namespace simulcast::props {
namespace {

TEST(InterruptResumeProperty, ResumeOfInterruptEqualsUninterruptedRun) {
  constexpr std::uint64_t kMasterSeed = 0x1A7E5;
  constexpr std::size_t kTriples = 100;
  constexpr std::size_t kParties = 4;
  constexpr std::size_t kReps = 6;
  // Cheap protocols keep 100 triples x 3 runs x 6 reps in property-suite
  // budget; the per-protocol interrupt matrix lives in tests/exec.
  const std::vector<std::string> protocols = {"gennaro", "cgma", "naive-commit-reveal"};

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "simulcast_interrupt_prop";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  static const crypto::HashCommitmentScheme scheme;
  const auto ens = dist::make_uniform(kParties);
  const stats::Rng master(kMasterSeed);
  PlanBounds bounds;  // drops, delays, crashes and partitions all in play

  exec::clear_shutdown();
  for (std::size_t i = 0; i < kTriples; ++i) {
    const auto proto = core::make_protocol(protocols[i % protocols.size()]);
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = kParties;
    spec.params.commitments = &scheme;
    spec.adversary = adversary::silent_factory();

    stats::Rng plan_rng = master.fork("plan", i);
    exec::RunConfig config;
    config.faults = random_plan(plan_rng, kParties, proto->rounds(kParties), bounds);
    // The property demands faults.
    if (config.faults.empty()) config.faults.drop_probability = 0.125;

    stats::Rng triple_rng = master.fork("triple", i);
    const std::uint64_t exec_seed = master.fork("exec", i)();
    const std::size_t interrupt_slot = 1 + triple_rng.below(kReps);  // in [1, kReps]
    const std::size_t threads = 1 + triple_rng.below(8);             // in [1, 8]
    const std::string reproducer = "reproducer: master_seed=" + std::to_string(kMasterSeed) +
                                   " index=" + std::to_string(i) +
                                   " exec_seed=" + std::to_string(exec_seed) +
                                   " interrupt_slot=" + std::to_string(interrupt_slot) +
                                   " threads=" + std::to_string(threads) + " plan=[" +
                                   config.faults.summary() + "]";

    const exec::BatchResult baseline =
        exec::Runner(1, config).run_batch(spec, *ens, kReps, exec_seed);
    ASSERT_EQ(baseline.report.completed, kReps) << reproducer;

    exec::BatchOptions options;
    options.checkpoint_path = (dir / ("prop_" + std::to_string(i) + ".ckpt")).string();
    options.resume = true;
    options.checkpoint_every = 1 + triple_rng.below(4);  // cadence must not matter

    exec::clear_shutdown();
    exec::set_stop_after(interrupt_slot);
    const exec::BatchResult interrupted =
        exec::Runner(threads, config).set_options(options).run_batch(spec, *ens, kReps, exec_seed);
    ASSERT_LE(interrupted.report.completed, kReps) << reproducer;

    exec::clear_shutdown();
    const exec::BatchResult resumed =
        exec::Runner(threads, config).set_options(options).run_batch(spec, *ens, kReps, exec_seed);

    ASSERT_EQ(resumed.samples.size(), baseline.samples.size()) << reproducer;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      ASSERT_TRUE(baseline.samples[rep] == resumed.samples[rep])
          << reproducer << " rep=" << rep;
    }
    ASSERT_EQ(resumed.report.completed, baseline.report.completed) << reproducer;
    ASSERT_EQ(resumed.report.partial, baseline.report.partial) << reproducer;
    ASSERT_EQ(resumed.report.total_rounds, baseline.report.total_rounds) << reproducer;
    ASSERT_EQ(traffic_diff(resumed.report.traffic, baseline.report.traffic), "") << reproducer;
    ASSERT_FALSE(std::filesystem::exists(options.checkpoint_path))
        << reproducer << ": completed batch must remove its checkpoint";
  }
  exec::clear_shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace simulcast::props
