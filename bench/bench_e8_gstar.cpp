// E8 - Appendix B: G* <=> G** (Prop. B.3) and G** => G on locally
// independent distributions (Prop. B.4).
//
// For a grid of (protocol, adversary) pairs we compute three verdicts:
//   G*  : max over fixed inputs x of | Pr[W_i = 1 | input x] -
//         Pr[W_i = 1 | input x_B ⊔ 0_B̄] |  (Definition B.1, statistical
//         closeness of E and E0 at the Bernoulli statistic);
//   G** : max over (w, r, s) fixed-input pairs (Definition B.2);
//   G   : the distributional tester on the uniform ensemble.
// Prop. B.3 predicts the G* and G** verdicts agree on every row; Prop. B.4
// predicts no row shows (G** pass, G fail).
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "stats/confidence.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE8;
constexpr std::size_t kPerInput = 200;

using exec::RunSpec;

/// The G* statistic: sweep all fixed inputs, compare each against the
/// zeroed-honest-input hybrid.
double gstar_gap(const RunSpec& spec, std::uint64_t seed) {
  const std::size_t n = spec.params.n;
  const auto honest = complement(n, spec.corrupted);
  stats::Rng master(seed);
  double max_gap = 0.0;
  for (std::uint64_t x_bits = 0; x_bits < (std::uint64_t{1} << n); ++x_bits) {
    const BitVec x(n, x_bits);
    BitVec zeroed = x;
    for (std::size_t j : honest) zeroed.set(j, false);
    const exec::Runner runner;
    const auto real = runner.run_batch(spec, x, kPerInput, master.fork("r", x_bits)());
    const auto hybrid = runner.run_batch(spec, zeroed, kPerInput, master.fork("h", x_bits)());
    const exec::EvaluationTimer timer;
    for (std::size_t c : spec.corrupted) {
      double p_real = 0.0;
      double p_hybrid = 0.0;
      for (const auto& s : real.samples) p_real += s.announced.get(c) ? 1.0 : 0.0;
      for (const auto& s : hybrid.samples) p_hybrid += s.announced.get(c) ? 1.0 : 0.0;
      max_gap = std::max(max_gap,
                         std::abs(p_real - p_hybrid) / static_cast<double>(kPerInput));
    }
  }
  return max_gap;
}

}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  core::Experiment experiment(
      "E8/gstar", "Prop. B.3: G* and G** are equivalent; Prop. B.4: G** implies G on Psi_L,n",
      "grid of (protocol, adversary) pairs, n = 4..5, fixed-input sweeps with 200 "
      "executions per input, G on uniform with 4000 executions",
      kSeed);

  // Each row states what its G** and G cells should show: the copy attack
  // breaks both notions, the honest, silent and A* rows keep both.
  struct Cell {
    std::string protocol;
    std::string adversary;
    RunSpec spec;
    obs::Expect expected;
  };
  std::vector<Cell> cells;
  std::vector<std::unique_ptr<sim::ParallelBroadcastProtocol>> protos;

  const auto add = [&](const std::string& pname, const std::string& aname, std::size_t n,
                       std::vector<sim::PartyId> corrupted, adversary::AdversaryFactory factory,
                       obs::Expect expected) {
    protos.push_back(core::make_protocol(pname));
    Cell cell;
    cell.protocol = pname;
    cell.adversary = aname;
    cell.spec.protocol = protos.back().get();
    cell.spec.params.n = n;
    cell.spec.corrupted = std::move(corrupted);
    cell.spec.adversary = std::move(factory);
    cell.expected = expected;
    cells.push_back(std::move(cell));
  };

  {
    auto gennaro = core::make_protocol("gennaro");
    sim::ProtocolParams p4;
    p4.n = 4;
    add("gennaro", "passive", 4, {2}, adversary::passive_factory(*gennaro, p4),
        obs::Expect::pass);
    protos.push_back(std::move(gennaro));  // keep alive for the factory
  }
  add("flawed-pi-g", "parity A*", 5, {1, 3}, adversary::parity_factory(), obs::Expect::pass);
  add("seq-broadcast", "copy", 4, {3}, adversary::copy_last_factory(0),
      obs::Expect::violation);
  add("seq-broadcast", "silent", 4, {3}, adversary::silent_factory(), obs::Expect::pass);

  // G* compares two kPerInput-sample Bernoulli estimates per (input,
  // corrupted coordinate): the testers' rule, union-bounded over 64 inputs
  // times 2 corrupted coordinates.
  const double kThreshold =
      stats::Budget(testers::kAlpha, 64 * 2).diff_radius(kPerInput, kPerInput) + testers::kMargin;

  core::Table table({"protocol", "adversary", "G* gap", "G* verdict", "G** gap", "G** verdict",
                     "G verdict", "B.3 agree?", "B.4 ok?"});
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& cell = cells[ci];
    const double gs = gstar_gap(cell.spec, kSeed + ci);
    const bool gstar_pass = gs <= kThreshold;

    const testers::GssVerdict gss = testers::test_gstarstar(cell.spec, kPerInput, kSeed + 40 + ci);

    const auto uniform = dist::make_uniform(cell.spec.params.n);
    const auto batch = exec::Runner().run_batch(cell.spec, *uniform, 4000, kSeed + 80 + ci);
    const testers::GVerdict g = testers::test_g(batch.samples, cell.spec.corrupted);

    const bool b3 = gstar_pass == gss.independent;
    const bool b4 = !(gss.independent && !g.independent);
    const std::string row_label = cell.protocol + " x " + cell.adversary;
    experiment.cell(row_label + " G**", obs::record(gss), cell.expected);
    experiment.cell(row_label + " G", obs::record(g), cell.expected);
    experiment.cell(row_label + " B.3/B.4",
                    obs::check(b3 && b4, std::string("G* gap ") + core::fmt(gs) + " (" +
                                             (gstar_pass ? "PASS" : "FAIL") + "), B.3 agree " +
                                             (b3 ? "yes" : "NO") + ", B.4 ok " +
                                             (b4 ? "yes" : "NO")),
                    obs::Expect::pass);
    table.add_row({cell.protocol, cell.adversary, core::fmt(gs),
                   gstar_pass ? "PASS" : "FAIL", core::fmt(gss.max_gap),
                   gss.independent ? "PASS" : "FAIL", g.independent ? "PASS" : "FAIL",
                   b3 ? "yes" : "NO", b4 ? "yes" : "NO"});
  }
  std::cout << table.render() << "\n";

  return experiment.finish(
      "G*/G** verdicts agree on every row; no (G** pass, G fail) row");
}
