// E13 - tester calibration: how many executions does it take to detect the
// paper's separations, and do the testers stay quiet on honest runs?
//
// Not a paper result; this experiment underwrites the statistical
// substitution in DESIGN.md ("negligible in k" -> Monte-Carlo gap vs
// Hoeffding radius).  Two curves:
//   - detection: smallest sample count at which the CR tester flags
//     flawed-pi-g under A* (true gap 1/4) and at which the G tester flags
//     naive-commit-reveal under selective abort (true conditional gap 1);
//   - false positives: at the largest sample count, honest/passive runs
//     across all protocols produce zero flags (the union-bounded radii are
//     doing their job).
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE13;
const std::vector<std::size_t> kSampleCounts = {100, 200, 400, 800, 1600, 3200, 6400};
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  core::Experiment experiment(
      "E13/tester-power",
      "(methodology) finite-sample power of the definition testers: detection "
      "thresholds for the paper's separations, zero false positives on honest runs",
      "sample sweep 100..6400; detection targets: CR on flawed-pi-g/A* (gap 1/4), "
      "G on naive-commit-reveal/selective-abort (gap 1)",
      kSeed);

  // Detection curve 1: CR on the Lemma 6.4 attack.
  const auto pig = core::make_protocol("flawed-pi-g");
  exec::RunSpec pig_spec;
  pig_spec.protocol = pig.get();
  pig_spec.params.n = 5;
  pig_spec.corrupted = {1, 3};
  pig_spec.adversary = adversary::parity_factory();
  const auto uniform5 = dist::make_uniform(5);

  // Detection curve 2: G on selective abort.
  static const crypto::HashCommitmentScheme scheme;
  const auto ncr = core::make_protocol("naive-commit-reveal");
  exec::RunSpec ncr_spec;
  ncr_spec.protocol = ncr.get();
  ncr_spec.params.n = 4;
  ncr_spec.params.commitments = &scheme;
  ncr_spec.corrupted = {3};
  ncr_spec.adversary = adversary::selective_abort_factory(0, scheme);
  const auto uniform4 = dist::make_uniform(4);

  core::Table table({"samples", "CR on flawed-pi-g/A*", "CR gap/radius",
                     "G on ncr/abort", "G excess"});
  std::size_t cr_detect_at = 0;
  std::size_t g_detect_at = 0;
  for (const std::size_t count : kSampleCounts) {
    const auto pig_batch = exec::Runner().run_batch(pig_spec, *uniform5, count, kSeed);
    const auto cr = testers::test_cr(pig_batch.samples, pig_spec.corrupted);
    if (!cr.independent && cr_detect_at == 0) cr_detect_at = count;

    const auto ncr_batch = exec::Runner().run_batch(ncr_spec, *uniform4, count, kSeed + 1);
    const auto g = testers::test_g(ncr_batch.samples, ncr_spec.corrupted);
    if (!g.independent && g_detect_at == 0) g_detect_at = count;

    experiment.cell("CR @" + std::to_string(count), obs::record(cr), obs::Expect::info);
    experiment.cell("G @" + std::to_string(count), obs::record(g), obs::Expect::info);
    table.add_row({std::to_string(count), cr.independent ? "quiet" : "DETECTED",
                   core::fmt(cr.max_gap) + "/" + core::fmt(cr.radius),
                   g.independent ? "quiet" : "DETECTED", core::fmt(g.max_excess)});
  }
  std::cout << table.render() << "\n"
            << "first detection: CR at " << cr_detect_at << " samples, G at " << g_detect_at
            << " samples\n\n";
  experiment.cell("CR detects the 1/4 gap by 1600",
                  obs::check(cr_detect_at > 0 && cr_detect_at <= 1600,
                             "first detection at " + std::to_string(cr_detect_at) + " samples"),
                  obs::Expect::pass);
  experiment.cell("G detects the unit gap by 800",
                  obs::check(g_detect_at > 0 && g_detect_at <= 800,
                             "first detection at " + std::to_string(g_detect_at) + " samples"),
                  obs::Expect::pass);

  // False positives at the largest count: honest/passive runs of every
  // protocol must be quiet.
  bool no_false_positives = true;
  for (const std::string& name : core::protocol_names()) {
    if (name == "seq-broadcast-ds") continue;  // substrate variant, slow
    const auto proto = core::make_protocol(name);
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.corrupted = {2};
    spec.adversary = adversary::passive_factory(*proto, spec.params);
    const auto batch = exec::Runner().run_batch(spec, *uniform4, 6400, kSeed + 2);
    const auto cr = testers::test_cr(batch.samples, spec.corrupted);
    const auto g = testers::test_g(batch.samples, spec.corrupted);
    if (!cr.independent || !g.independent) {
      no_false_positives = false;
      std::cout << "FALSE POSITIVE on " << name << ": " << core::describe(cr) << " | "
                << core::describe(g) << "\n";
    }
  }
  if (no_false_positives)
    std::cout << "no false positives across " << core::protocol_names().size() - 1
              << " protocols at 6400 samples\n";
  experiment.cell("no false positives",
                  obs::check(no_false_positives, "honest/passive runs of every protocol stay "
                                                 "quiet at 6400 samples"),
                  obs::Expect::pass);

  return experiment.finish("CR detects the 1/4-gap at " + std::to_string(cr_detect_at) +
                           " samples, G detects the unit gap at " + std::to_string(g_detect_at) +
                           " samples; zero false positives");
}
