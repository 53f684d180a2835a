// explore - compose protocol x adversary x distribution x tester from the
// command line.  The "downstream user" tool: reproduce any cell of the
// paper's experiment grid without writing code.
//
//   explore <protocol> <adversary> <distribution> [options]
//
//   protocols     seq-broadcast | cgma | chor-rabin | gennaro |
//                 naive-commit-reveal | flawed-pi-g | flawed-pi-g-mpc |
//                 seq-broadcast-ds
//   adversaries   none | passive | silent | copy | parity | abort
//   distributions uniform | singleton:<bits> | copy | parity-even |
//                 product:<p0,p1,...>
//   options       --n=<parties=5, at most 32> --corrupt=<i,j,...> --samples=<N=2000>
//                 --seed=<s=1> --threads=<T=SIMULCAST_THREADS or 1>
//                 --json=<PATH> --trace=<PATH>
//                 --drop=<P> --delay=<R> --crash=<party@round,...>
//
// --threads (or the SIMULCAST_THREADS environment variable) shards the
// sample collection across a thread pool; results are bit-identical for
// every thread count (see DESIGN.md, "exec engine seeding contract").
// --json / --trace route the run through the same core::Experiment
// epilogue as the bench drivers: BENCH_explore_*.json records and
// Perfetto-loadable TRACE_explore_*.json traces land under PATH.
// --drop / --delay / --crash install a deterministic sim::FaultPlan
// (sim/faults.h) applied to every execution; fault counters surface in the
// [exec] line and the emitted record.
//
// Examples:
//   explore flawed-pi-g parity uniform --corrupt=1,3
//   explore flawed-pi-g-mpc parity uniform --corrupt=1,3
//   explore seq-broadcast copy singleton:1011 --n=4 --corrupt=3
//   explore gennaro passive product:0.3,0.7,0.5,0.8 --n=4 --corrupt=2
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "base/parse.h"
#include "core/registry.h"
#include "core/report.h"
#include "exec/runner.h"
#include "net/transport.h"
#include "sim/network.h"
#include "obs/trace.h"
#include "protocols/theta_mpc.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/sb_tester.h"

namespace {

using namespace simulcast;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: explore <protocol> <adversary> <distribution> "
               "[--n=5] [--corrupt=i,j] [--samples=2000] [--seed=1] [--threads=1] "
               "[--transport=inproc|socket|process] [--net-timeout=S] [--chaos=SPEC] "
               "[--json=PATH] [--trace=PATH] "
               "[--drop=P] [--delay=R] [--crash=party@round,...] "
               "[--checkpoint=PATH] [--resume] [--rep-timeout=S] [--retries=N] "
               "[--stop-after=K]\n"
               "run 'explore list' to enumerate the registered protocols.\n";
  std::exit(2);
}

/// Explore's own numbers go through the run knobs' strict parser: "3x",
/// "-1" or "abc" is a usage error, never a silent truncation or wrap.
std::uint64_t count_arg(const std::string& what, const std::string& text, std::uint64_t min) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value || *value < min)
    usage(what + " must be " + (min > 0 ? "a positive integer" : "a non-negative integer") +
          ", got '" + text + "'");
  return *value;
}

std::vector<sim::PartyId> parse_ids(const std::string& csv) {
  std::vector<sim::PartyId> ids;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) ids.push_back(count_arg("--corrupt entry", item, 0));
  return ids;
}

std::vector<double> parse_probs(const std::string& csv) {
  std::vector<double> p;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::optional<double> value = parse_real(item);
    if (!value || !(*value >= 0.0 && *value <= 1.0))
      usage("product: entries must be probabilities in [0, 1], got '" + item + "'");
    p.push_back(*value);
  }
  return p;
}

std::shared_ptr<dist::InputEnsemble> make_ensemble(const std::string& spec, std::size_t n) {
  if (spec == "uniform") return dist::make_uniform(n);
  if (spec == "copy") return std::make_shared<dist::NoisyCopyEnsemble>(n, 0.0);
  if (spec == "parity-even") return std::make_shared<dist::EvenParityEnsemble>(n);
  if (spec.rfind("singleton:", 0) == 0) {
    const std::string bits = spec.substr(10);
    if (bits.empty() || bits.size() > kMaxBits || bits.find_first_not_of("01") != std::string::npos)
      usage("singleton: needs 1 to 64 bits of 0/1, got '" + bits + "'");
    return std::make_shared<dist::SingletonEnsemble>(BitVec::from_string(bits));
  }
  if (spec.rfind("product:", 0) == 0)
    return std::make_shared<dist::ProductEnsemble>(parse_probs(spec.substr(8)));
  usage("unknown distribution '" + spec + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // Worker dispatch must run before the positional-argument checks: a
  // re-exec'd process-transport worker carries no positionals, only the
  // --simulcast-worker-* flags (exec::configure below never sees them —
  // it is handed the knobs after the positionals).
  if (const int worker_rc = simulcast::sim::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  if (argc >= 2 && std::string(argv[1]) == "list") {
    for (const std::string& name : core::protocol_names()) std::cout << name << "\n";
    return 0;
  }
  if (argc < 4) usage();
  const std::string protocol_name = argv[1];
  const std::string adversary_name = argv[2];
  const std::string dist_spec = argv[3];

  // The uniform knobs (--threads, --transport, --json, --trace, the fault
  // and resilience flags) go through the same strict parser every bench
  // driver uses: an unknown or repeated option exits 2 there, so explore's
  // own loop only sees its four pass-through knobs.  exec::configure sees
  // explore's own name (its usage line prints it) and the knobs, never the
  // three positionals.
  std::vector<char*> knobs{argv[0]};
  knobs.insert(knobs.end(), argv + 4, argv + argc);
  const exec::RunConfig config = exec::configure(static_cast<int>(knobs.size()), knobs.data(),
                                                 {"--n=", "--corrupt=", "--samples=", "--seed="});
  std::size_t n = 5;
  std::vector<sim::PartyId> corrupted;
  std::size_t samples = 2000;
  std::uint64_t seed = 1;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0)
      n = count_arg("--n", arg.substr(4), 1);
    else if (arg.rfind("--corrupt=", 0) == 0)
      corrupted = parse_ids(arg.substr(10));
    else if (arg.rfind("--samples=", 0) == 0)
      samples = count_arg("--samples", arg.substr(10), 1);
    else if (arg.rfind("--seed=", 0) == 0)
      seed = count_arg("--seed", arg.substr(7), 0);
  }
  // Every run ends with the Sb tester, so its party limit is explore's.
  if (n > testers::kSbMaxParties)
    usage("--n must be at most " + std::to_string(testers::kSbMaxParties) +
          " (the Sb tester packs x and W into 2n <= 64 bits), got " + std::to_string(n));
  const sim::FaultPlan& faults = config.faults;

  try {
    const auto proto = core::make_protocol(protocol_name);
    const auto* mpc = dynamic_cast<const protocols::ThetaMpcProtocol*>(proto.get());
    const auto ensemble = make_ensemble(dist_spec, n);
    if (ensemble->bits() != n) usage("distribution width != --n");

    static const crypto::HashCommitmentScheme scheme;
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = n;
    spec.params.commitments = &scheme;
    spec.corrupted = corrupted;
    if (adversary_name == "none" || adversary_name == "silent")
      spec.adversary = adversary::silent_factory();
    else if (adversary_name == "passive")
      spec.adversary = adversary::passive_factory(*proto, spec.params);
    else if (adversary_name == "copy")
      spec.adversary = adversary::copy_last_factory(0);
    else if (adversary_name == "parity")  // Claim 6.6's A*, on either Θ backend
      spec.adversary = mpc ? adversary::theta_mpc_parity_factory(*mpc, spec.params)
                           : adversary::parity_factory();
    else if (adversary_name == "abort")
      spec.adversary = adversary::selective_abort_factory(0, scheme);
    else
      usage("unknown adversary '" + adversary_name + "'");

    std::ostringstream setup;
    setup << protocol_name << " x " << adversary_name << " x " << ensemble->name() << "  (n="
          << n << ", corrupt={";
    for (std::size_t i = 0; i < corrupted.size(); ++i)
      setup << (i ? "," : "") << corrupted[i];
    setup << "}, " << samples << " executions, seed " << seed << ")";
    if (!faults.empty()) setup << "  faults: " << faults.summary();
    // Exploration pins no claim: every cell is an observation (`info`), so
    // the run reproduces iff it completes.
    core::Experiment experiment(
        "explore/" + protocol_name + "-" + adversary_name + "-" + dist_spec,
        "exploration run: no pinned claim, verdicts are observations", setup.str(), seed);

    const std::vector<exec::Sample> sample_set =
        exec::Runner().run_batch(spec, *ensemble, samples, seed).samples;
    const double consistency = testers::consistency_rate(sample_set);
    std::cout << "consistency rate: " << core::fmt(consistency) << "\n";
    experiment.cell("consistency", obs::check(true, "rate " + core::fmt(consistency)),
                    obs::Expect::info);
    const auto cr = testers::test_cr(sample_set, spec.corrupted);
    std::cout << core::describe(cr) << "\n";
    experiment.cell("CR", obs::record(cr), obs::Expect::info);
    if (!spec.corrupted.empty()) {
      const auto g = testers::test_g(sample_set, spec.corrupted);
      std::cout << core::describe(g) << "\n";
      experiment.cell("G", obs::record(g), obs::Expect::info);
    }
    const auto sb =
        testers::test_sb(spec, *ensemble, std::min<std::size_t>(samples, 800), seed + 1);
    std::cout << core::describe(sb) << "\n";
    experiment.cell("Sb", obs::record(sb), obs::Expect::info);
    std::cout << "\n";

    return experiment.finish("consistency " + core::fmt(consistency));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
