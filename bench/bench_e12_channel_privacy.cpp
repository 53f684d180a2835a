// E12 - model validation: the private point-to-point channels the paper's
// protocols presuppose are load-bearing.
//
// Section 3.1 lets the adversary "read all communication channels"; the
// VSS-based protocols are nevertheless secure because real deployments
// encrypt point-to-point links, which our simulator models with
// private_channels = true (see sim/adversary.h and DESIGN.md).  This
// experiment shows the flag is not cosmetic: against CGMA - whose dealing
// phase is *sequential* - a snooping adversary on public channels reads the
// victim's round-0 shares off the wire, reconstructs the victim's input
// bit, and deals a perfect copy with its own later-scheduled dealer.  The
// G** tester (fixed inputs, so the copy is a certainty event) flags it with
// gap ~ 1; with private channels the identical adversary is inert.
#include <iostream>
#include <sstream>

#include "core/registry.h"
#include "core/report.h"
#include "protocols/cgma.h"
#include "testers/gstarstar_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE12;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E12/channel-privacy";
  rec.paper_claim =
      "model validation (Section 3.1): VSS protocols need private p2p channels; "
      "with public channels a snooper copies a sequential dealer's bit";
  rec.setup =
      "cgma, n = 5, corrupted dealer 4 snoops on victim dealer 0; G** tester over "
      "fixed inputs, 150 executions per input, private vs public channels";
  rec.seed = kSeed;
  core::print_banner(rec);

  const auto proto = core::make_protocol("cgma");
  const auto schedule = protocols::CgmaProtocol::schedule(5);

  core::Table table({"channels", "G** verdict", "max gap", "worst (w, r, s)"});
  bool public_violated = false;
  bool private_safe = false;
  for (const bool private_channels : {true, false}) {
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 5;
    spec.corrupted = {4};
    spec.private_channels = private_channels;
    spec.adversary = adversary::share_snoop_factory(0, schedule);

    testers::GssOptions options;
    options.samples_per_input = 150;
    const testers::GssVerdict v = testers::test_gstarstar(spec, options, kSeed);
    rec.cells.push_back(
        {private_channels ? "private channels G**" : "public channels G**", obs::record(v)});
    std::ostringstream worst;
    worst << "w=" << v.worst.w.to_string() << " r=" << v.worst.r.to_string()
          << " s=" << v.worst.s.to_string();
    table.add_row({private_channels ? "private (model default)" : "PUBLIC",
                   v.independent ? "independent" : "VIOLATED", core::fmt(v.max_gap),
                   v.independent ? "-" : worst.str()});
    if (private_channels)
      private_safe = v.independent;
    else
      public_violated = !v.independent && v.max_gap > 0.9;
  }
  std::cout << table.render() << "\n";

  rec.reproduced = public_violated && private_safe;
  rec.detail =
      std::string("public channels: snooper copies the victim bit (gap ~ 1); private "
                  "channels: same adversary inert - the model's encrypted-link ") +
      "abstraction is necessary, not cosmetic";
  return core::finish_experiment(rec);
}
