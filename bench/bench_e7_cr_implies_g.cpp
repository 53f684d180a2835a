// E7 - Lemma 6.2: (D(G), CR)-independence implies (D(G), G)-independence,
// with the proof's explicit D' construction (Appendix A.2).
//
//   (a) implication sweep: on a grid of locally independent distributions,
//       every (protocol, adversary) cell that passes the CR tester also
//       passes the G tester - no counterexample;
//   (b) the contrapositive construction: the proof takes a G** violation
//       (here: seq-broadcast + copy, whose corrupted coordinate flips with
//       the victim's fixed input) and builds the pinned distribution
//       D' = PinnedCoordinate(ell = victim, p, rest) on which the CR
//       quantity equals p(1-p) * |gap|.  We run exactly that D' and verify
//       the measured CR gap matches p(1-p) times the measured G** gap.
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE7;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E7/cr-implies-g";
  rec.paper_claim =
      "Lemma 6.2: a protocol CR-independent on all of D(G) is G-independent on all of "
      "D(G); proof constructs D' with CR gap = p(1-p) * G** gap";
  rec.setup =
      "grid of locally independent distributions x 4 protocols (one corruption, "
      "passive); then the A.2 pinned distribution on seq-broadcast + copy";
  rec.seed = kSeed;
  core::print_banner(rec);

  std::vector<std::shared_ptr<dist::InputEnsemble>> grid;
  grid.push_back(dist::make_uniform(4));
  grid.push_back(std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.3, 0.6, 0.5, 0.8}));
  grid.push_back(std::make_shared<dist::NoisyCopyEnsemble>(4, 0.5));  // = uniform

  core::Table table({"protocol", "CR on grid", "G on grid", "consistent with Lemma 6.2?"});
  bool implication_holds = true;
  for (const char* name : {"cgma", "chor-rabin", "gennaro", "flawed-pi-g"}) {
    const auto proto = core::make_protocol(name);
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.corrupted = {3};
    spec.adversary = adversary::passive_factory(*proto, spec.params);

    bool cr_all = true;
    bool g_all = true;
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      const auto batch = exec::Runner().run_batch(spec, *grid[gi], 2500, kSeed + gi);
      cr_all = cr_all && testers::test_cr(batch.samples, spec.corrupted).independent;
      g_all = g_all && testers::test_g(batch.samples, spec.corrupted).independent;
    }
    const bool consistent = !(cr_all && !g_all);
    implication_holds = implication_holds && consistent;
    rec.cells.push_back(
        {name, obs::check(consistent, std::string("CR on grid ") + (cr_all ? "PASS" : "FAIL") +
                                          ", G on grid " + (g_all ? "PASS" : "FAIL") +
                                          " - no (CR pass, G fail) cell")});
    table.add_row(
        {name, cr_all ? "PASS" : "FAIL", g_all ? "PASS" : "FAIL", consistent ? "yes" : "NO"});
  }
  std::cout << table.render() << "\n";

  // (b) The A.2 construction.  seq-broadcast + copy: G** gap at corrupted
  // P3 between victim inputs r (bit 0) and s (bit 1) is ~1.  Build
  // D' pinned at ell = 0 with p = 0.3; the CR quantity on D' must be
  // ~ p(1-p) * 1 = 0.21.
  const auto seq = core::make_protocol("seq-broadcast");
  exec::RunSpec spec;
  spec.protocol = seq.get();
  spec.params.n = 4;
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);

  testers::GssOptions gss_options;
  gss_options.samples_per_input = 150;
  const testers::GssVerdict gss = testers::test_gstarstar(spec, gss_options, kSeed + 50);
  std::cout << "G** on seq-broadcast + copy: " << core::describe(gss) << "\n";

  const double p_ell = 0.3;
  const dist::PinnedCoordinateEnsemble d_prime(4, 0, p_ell, BitVec::from_string("110"));
  const auto batch = exec::Runner().run_batch(spec, d_prime, 4000, kSeed + 51);
  const testers::CrVerdict cr = testers::test_cr(batch.samples, spec.corrupted);
  const double predicted = p_ell * (1.0 - p_ell) * gss.max_gap;
  std::cout << "CR on D' (pinned, p = " << p_ell << "): " << core::describe(cr) << "\n"
            << "predicted CR gap = p(1-p) * G** gap = " << core::fmt(predicted) << "\n";

  const bool construction_matches =
      !gss.independent && !cr.independent && std::abs(cr.max_gap - predicted) < 0.05;
  rec.cells.push_back({"A.2 G** on seq-broadcast + copy", obs::record(gss)});
  rec.cells.push_back({"A.2 CR on D'", obs::record(cr)});
  rec.cells.push_back({"A.2 gap prediction",
                       obs::check(construction_matches,
                                  "measured CR gap " + core::fmt(cr.max_gap) +
                                      " vs predicted p(1-p) * G** gap " + core::fmt(predicted))});

  rec.reproduced = implication_holds && construction_matches;
  rec.detail = std::string("no (CR pass, G fail) cell observed: ") +
               (implication_holds ? "yes" : "NO") + "; A.2 construction: measured CR gap " +
               core::fmt(cr.max_gap) + " vs predicted " + core::fmt(predicted);
  return core::finish_experiment(rec);
}
