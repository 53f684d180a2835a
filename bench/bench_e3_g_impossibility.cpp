// E3 - Lemma 5.4: for any input ensemble D outside Ψ_{L,n} (not locally
// independent), NO protocol achieves G-independence under D.
//
// Same structure as E2 but for the G notion, which tests corrupted
// coordinates: we corrupt one party, let it behave entirely honestly
// (passive adversary), and draw inputs from ensembles where the corrupted
// party's input is correlated with the honest ones.  Correctness forces the
// corrupted party's honest machine to announce its correlated input, so the
// conditional probabilities of Definition 4.4 differ across honest announced
// vectors for every protocol.  The PRF-correlated ensemble - inside D(CR)
// but outside D(G) - is included to show the impossibility already bites on
// the gap between the two classes.  Uniform is the passing control.
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/g_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE3;
constexpr std::size_t kSamples = 3000;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E3/g-impossibility";
  rec.paper_claim =
      "Lemma 5.4: D outside Psi_L,n implies no protocol is G-independent under D";
  rec.setup =
      "5 protocols x {copy, noisy-copy eps=.1, prf-correlated} ensembles, corrupted "
      "party = the correlated coordinate (n-1) behaving honestly, n = 4..5, 3000 "
      "executions each; uniform as the control";
  rec.seed = kSeed;
  core::print_banner(rec);

  core::Table table(
      {"protocol", "ensemble", "G verdict", "max excess", "worst gap", "conditionings"});
  bool all_correlated_flagged = true;
  bool all_uniform_passed = true;

  for (const std::string& name : core::protocol_names()) {
    // seq-broadcast-ds is the substrate-cost variant of seq-broadcast; its
    // definitional behaviour is identical and its signature traffic makes
    // thousands of executions needlessly slow, so the sweep skips it.
    if (name == "seq-broadcast-ds") continue;
    const auto proto = core::make_protocol(name);

    const auto eval = [&](const dist::InputEnsemble& ens, bool expect_violation) {
      exec::RunSpec spec;
      spec.protocol = proto.get();
      spec.params.n = ens.bits();
      spec.corrupted = {ens.bits() - 1};  // the correlated coordinate
      spec.adversary = adversary::passive_factory(*proto, spec.params);
      const auto batch = exec::Runner().run_batch(spec, ens, kSamples, kSeed);
      const testers::GVerdict v = testers::test_g(batch.samples, spec.corrupted);
      rec.cells.push_back({name + " x " + ens.name(), obs::record(v)});
      table.add_row({name, ens.name(), v.independent ? "independent" : "VIOLATED",
                     core::fmt(v.max_excess), core::fmt(v.worst.gap),
                     std::to_string(v.pairs_tested)});
      if (expect_violation && v.independent) all_correlated_flagged = false;
      if (!expect_violation && !v.independent) all_uniform_passed = false;
    };

    eval(dist::NoisyCopyEnsemble(4, 0.0), true);
    eval(dist::NoisyCopyEnsemble(4, 0.1), true);
    eval(dist::PrfCorrelatedEnsemble(5, 0), true);
    eval(*dist::make_uniform(4), false);
  }
  std::cout << table.render() << "\n";

  rec.reproduced = all_correlated_flagged && all_uniform_passed;
  rec.detail =
      std::string("every protocol violates G under all three non-Psi_L ensembles: ") +
      (all_correlated_flagged ? "yes" : "NO") +
      "; uniform control passes everywhere: " + (all_uniform_passed ? "yes" : "NO");
  return core::finish_experiment(rec);
}
