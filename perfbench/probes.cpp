// Per-layer probes of the traced run.
//
// Every probe calls a public entry point of one layer with inputs drawn
// from the workload seed and times it from the outside.  Kernel timings
// are medians over repeated timed loops (one loop is long enough for the
// clock to resolve it); per-execution timings are exact quantiles of
// spans.
#include <algorithm>
#include <cmath>

#include "adversary/adversaries.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "crypto/group.h"
#include "crypto/hmac.h"
#include "crypto/modmath.h"
#include "crypto/sha256.h"
#include "crypto/vss.h"
#include "dist/ensembles.h"
#include "harness.h"
#include "net/wire.h"
#include "sim/network.h"
#include "stats/rng.h"
#include "testers/g_tester.h"

namespace perfbench {

using namespace simulcast;

namespace {

constexpr int kLoops = 7;  // timed loops per kernel; the median is reported

// Kernel results are folded into this volatile so no timed loop is elided.
volatile std::uint64_t g_sink = 0;

/// Median over kLoops of (loop time / ops), in ns.  `body(i)` performs
/// operation i and returns a value folded into a sink so the work stays.
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body) {
  std::vector<double> per_op;
  std::uint64_t sink = 0;
  for (int loop = 0; loop < kLoops; ++loop) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) sink += body(i);
    per_op.push_back(seconds_between(start, Clock::now()) * 1e9 / static_cast<double>(ops));
  }
  g_sink = sink;
  return median(per_op);
}

/// The Runner's seeding contract (exec/runner.h): inputs drawn in
/// repetition order from master.fork("inputs"), execution r seeded with
/// master.fork("exec", r)().
struct Replay {
  std::vector<BitVec> inputs;
  std::vector<std::uint64_t> seeds;
};

Replay replay_stream(const dist::InputEnsemble& ensemble, std::uint64_t seed, std::size_t count) {
  const stats::Rng master(seed);
  stats::Rng input_rng = master.fork("inputs");
  Replay r;
  for (std::size_t rep = 0; rep < count; ++rep) {
    r.inputs.push_back(ensemble.sample(input_rng));
    r.seeds.push_back(master.fork("exec", rep)());
  }
  return r;
}

struct Executed {
  sim::ExecutionResult result;
  broadcast::Announced announced;
  double ns = 0.0;
};

Executed execute(const exec::RunSpec& spec, const BitVec& input, std::uint64_t seed,
                 net::TransportKind transport, Tracer& tracer, std::uint32_t span_name,
                 bool record_trace = false) {
  sim::ExecutionConfig config;
  config.seed = seed;
  config.corrupted = spec.corrupted;
  config.auxiliary_input = spec.auxiliary_input;
  config.private_channels = spec.private_channels;
  config.transport = transport;
  config.record_trace = record_trace;
  const std::unique_ptr<sim::Adversary> adversary = spec.adversary();
  Executed out;
  const std::uint32_t handle = tracer.begin(span_name);
  const Clock::time_point start = Clock::now();
  out.result = sim::run_execution(*spec.protocol, spec.params, input, *adversary, config);
  out.ns = seconds_between(start, Clock::now()) * 1e9;
  tracer.end(handle);
  out.announced = broadcast::extract_announced(out.result, spec.corrupted);
  return out;
}

bool same_outcome(const Executed& e, const exec::Sample& s) {
  if (e.announced.consistent != s.consistent || e.result.rounds != s.rounds) return false;
  if (e.result.traffic.messages != s.traffic.messages ||
      e.result.traffic.wire_bytes != s.traffic.wire_bytes)
    return false;
  return !s.consistent || e.announced.w == s.announced;
}

void crypto_probes(std::uint64_t seed, MetricMap& out, std::vector<std::string>& errors) {
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::standard();
  const std::uint64_t p = group.p(), q = group.q();
  stats::Rng rng = stats::Rng(seed).fork("crypto-probes");

  // Instantiation plus the first draw, as a party does it.
  out["crypto.drbg_new_ns"] = {ns_per_op(4000,
                                         [&](std::size_t i) {
                                           crypto::HmacDrbg party(seed + i, "perfbench/party");
                                           return party.next_u64();
                                         }),
                               "ns"};
  crypto::HmacDrbg drbg(seed, "perfbench/below");
  out["crypto.drbg_below_ns"] = {ns_per_op(20000, [&](std::size_t) { return drbg.below(q); }),
                                 "ns"};

  Bytes block(64);
  for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng());
  out["crypto.sha256_64b_ns"] = {ns_per_op(20000,
                                           [&](std::size_t i) {
                                             block[0] = static_cast<std::uint8_t>(i);
                                             return crypto::sha256(block)[0];
                                           }),
                                 "ns"};

  const crypto::HashCommitmentScheme hash_scheme;
  const crypto::PedersenCommitmentScheme pedersen_scheme;
  const Bytes message = {static_cast<std::uint8_t>(rng() & 1)};
  const crypto::Opening hash_opening = hash_scheme.make_opening(message, drbg);
  const crypto::Opening pedersen_opening = pedersen_scheme.make_opening(message, drbg);
  out["crypto.hash_commit_ns"] = {
      ns_per_op(20000,
                [&](std::size_t) { return hash_scheme.commit("perfbench/P0", hash_opening).value[0]; }),
      "ns"};
  out["crypto.pedersen_commit_ns"] = {
      ns_per_op(20000,
                [&](std::size_t) {
                  return pedersen_scheme.commit("perfbench/P0", pedersen_opening).value[0];
                }),
      "ns"};
  if (!hash_scheme.verify("perfbench/P0", hash_scheme.commit("perfbench/P0", hash_opening),
                          hash_opening) ||
      !pedersen_scheme.verify("perfbench/P0",
                              pedersen_scheme.commit("perfbench/P0", pedersen_opening),
                              pedersen_opening))
    errors.push_back("crypto probe: a commitment failed to verify");

  std::vector<std::uint64_t> bases(1024), exps(1024);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    bases[i] = 2 + rng.below(p - 3);
    exps[i] = rng.below(q);
  }
  out["crypto.powmod_ns"] = {ns_per_op(20000,
                                       [&](std::size_t i) {
                                         return crypto::powmod(bases[i & 1023], exps[i & 1023], p);
                                       }),
                             "ns"};

  const crypto::PedersenVss vss(group);
  for (const std::size_t n : {std::size_t{4}, std::size_t{16}}) {
    const std::size_t t = (n - 1) / 2;
    const std::string suffix = ".n" + std::to_string(n);
    crypto::HmacDrbg deal_drbg(seed ^ n, "perfbench/vss");
    const crypto::Zq secret = crypto::Zq::sample(deal_drbg, q);
    out["crypto.vss_deal_us" + suffix] = {
        ns_per_op(n == 4 ? 2000 : 500,
                  [&](std::size_t) { return vss.deal(secret, t, n, deal_drbg).commitments[0]; }) /
            1e3,
        "us"};
    const crypto::PedersenDeal deal = vss.deal(secret, t, n, deal_drbg);
    std::size_t verified = 0;
    out["crypto.vss_verify_ns" + suffix] = {
        ns_per_op(4000,
                  [&](std::size_t i) {
                    const bool ok = vss.verify_share(deal.commitments, deal.shares[i % n]);
                    verified += ok ? 1 : 0;
                    return static_cast<std::uint64_t>(ok);
                  }),
        "ns"};
    if (verified != 4000 * static_cast<std::size_t>(kLoops))
      errors.push_back("crypto probe: an honest VSS share failed to verify at n = " +
                       std::to_string(n));
  }
}

}  // namespace

void run_probes(const ProbeContext& ctx, MetricMap& out, std::vector<std::string>& errors) {
  const Workload& w = ctx.workload;
  const PassResult& pass = ctx.pass;
  Tracer& tracer = ctx.tracer;

  // --- per-execution replay through sim::run_execution -------------------
  // Size the replay to half the budget from the pass's mean execution time.
  // The Runner batches below read the process-default transport.
  net::set_default_transport_kind(w.transport);
  const double exec_s =
      pass.execution_s / static_cast<double>(std::max<std::uint64_t>(1, pass.counts.executions));
  const auto per_cell = static_cast<std::size_t>(
      0.5 * ctx.budget_s / (exec_s * static_cast<double>(w.cells.size())));
  double replay_ns = 0.0, serial_wall_s = 0.0, pooled_wall_s = 0.0;
  double ab_own_ns = 0.0, ab_other_ns = 0.0;
  std::uint64_t ab_count = 0, mismatches = 0;
  const net::TransportKind other = w.transport == net::TransportKind::kSocket
                                       ? net::TransportKind::kInProcess
                                       : net::TransportKind::kSocket;
  std::vector<sim::Message> frames;
  const std::uint32_t recorded_span = tracer.intern("sim.run_execution.recorded");
  const std::uint32_t serial_span = tracer.intern("exec.run_batch.serial");
  const std::uint32_t pooled_span = tracer.intern("exec.run_batch.pooled");
  const std::uint32_t ab_span =
      tracer.intern("net.ab." + std::string(net::transport_kind_name(other)));
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const Cell& cell = w.cells[c];
    const std::size_t reps = std::clamp<std::size_t>(per_cell, 20, cell.samples);
    const std::size_t slice = std::min<std::size_t>(reps, 300);  // engine-overhead slice
    const std::size_t ab = std::min<std::size_t>(reps, w.n > 8 ? 10 : 100);  // transport A/B
    const std::uint32_t span = tracer.intern("sim.run_execution/" + cell.protocol);
    const Replay stream = replay_stream(*cell.ensemble, cell.seed, reps);
    std::vector<double> own_ns(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const Executed e =
          execute(cell.spec, stream.inputs[r], stream.seeds[r], w.transport, tracer, span);
      if (!same_outcome(e, pass.samples[c][r])) ++mismatches;
      own_ns[r] = e.ns;
    }
    for (std::size_t r = 0; r < slice; ++r) replay_ns += own_ns[r];

    // Engine overhead: the same slice through run_batch, serial and pooled,
    // straight after the replay so both see the same machine.
    exec::BatchOptions options;
    options.quarantine = true;
    {
      const ScopedSpan s(tracer, serial_span);
      const exec::BatchResult b = exec::Runner(1).set_options(options).run_batch(
          cell.spec, *cell.ensemble, slice, cell.seed);
      serial_wall_s += b.report.wall_seconds;
    }
    if (w.threads > 1) {
      const ScopedSpan s(tracer, pooled_span);
      const exec::BatchResult b = exec::Runner(w.threads).set_options(options).run_batch(
          cell.spec, *cell.ensemble, slice, cell.seed);
      pooled_wall_s += b.report.wall_seconds;
    }

    // Transport A/B: the first reps again over the other backend.
    for (std::size_t r = 0; r < ab; ++r) {
      const Executed o =
          execute(cell.spec, stream.inputs[r], stream.seeds[r], other, tracer, ab_span);
      if (!same_outcome(o, pass.samples[c][r])) ++mismatches;
      ab_own_ns += own_ns[r];
      ab_other_ns += o.ns;
      ++ab_count;
    }

    // One recorded execution per cell gives the workload's frame mix.
    const Executed recorded = execute(cell.spec, stream.inputs[0], stream.seeds[0],
                                      net::TransportKind::kInProcess, tracer, recorded_span, true);
    for (const auto& round : recorded.result.trace)
      frames.insert(frames.end(), round.begin(), round.end());
  }
  if (w.threads == 1) pooled_wall_s = serial_wall_s;
  if (mismatches > 0)
    errors.push_back(std::to_string(mismatches) +
                     " replayed executions differ from the Runner's samples or across transports");
  out["exec.overhead_share"] = {1.0 - replay_ns / 1e9 / serial_wall_s, "share"};
  out["exec.parallel_efficiency"] = {
      replay_ns / 1e9 / (static_cast<double>(w.threads) * pooled_wall_s), "share"};
  const double socket_ns = w.transport == net::TransportKind::kSocket ? ab_own_ns : ab_other_ns;
  const double inproc_ns = w.transport == net::TransportKind::kSocket ? ab_other_ns : ab_own_ns;
  out["net.exec_us_added"] = {(socket_ns - inproc_ns) / 1e3 / static_cast<double>(ab_count), "us"};

  // Protocols the campaign does not run are probed at the workload's n, so
  // every workload reports the same per-protocol set.
  const std::shared_ptr<const dist::InputEnsemble> uniform = dist::make_uniform(w.n);
  for (std::size_t i = 0; i < w.traced_protocols.size(); ++i) {
    const std::string& name = w.traced_protocols[i];
    if (std::any_of(w.cells.begin(), w.cells.end(),
                    [&](const Cell& c) { return c.protocol == name; }))
      continue;
    const std::unique_ptr<sim::ParallelBroadcastProtocol> proto = core::make_protocol(name);
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = w.n;
    spec.adversary = adversary::silent_factory();
    const std::uint32_t span = tracer.intern("sim.run_execution/" + name);
    const Replay stream = replay_stream(*uniform, stats::Rng(ctx.seed).fork("probe", i)(), 300);
    for (std::size_t r = 0; r < stream.seeds.size(); ++r) {
      const Executed e = execute(spec, stream.inputs[r], stream.seeds[r], w.transport, tracer, span);
      if (!e.announced.consistent || e.announced.w != stream.inputs[r])
        errors.push_back(name + " probe: execution " + std::to_string(r) + " announced wrongly");
    }
  }

  // --- wire codec on the workload's frame mix ------------------------------
  Bytes buffer;
  std::vector<Bytes> encoded(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) net::encode_message(frames[i], encoded[i]);
  if (frames.empty()) {
    errors.push_back("wire codec probe: the recorded executions sent no messages");
    return;
  }
  const std::size_t frame_ops = frames.size() * std::max<std::size_t>(1, 20000 / frames.size());
  out["net.encode_ns"] = {ns_per_op(frame_ops,
                                    [&](std::size_t i) {
                                      buffer.clear();
                                      net::encode_message(frames[i % frames.size()], buffer);
                                      return buffer.size();
                                    }),
                          "ns"};
  std::size_t decoded_ok = 0;
  out["net.decode_ns"] = {ns_per_op(frame_ops,
                                    [&](std::size_t i) {
                                      const sim::Message m =
                                          net::decode_message(encoded[i % frames.size()]);
                                      decoded_ok += m.payload == frames[i % frames.size()].payload;
                                      return m.payload.size();
                                    }),
                          "ns"};
  if (decoded_ok != frame_ops * static_cast<std::size_t>(kLoops))
    errors.push_back("wire codec probe: a decoded frame differs from the encoded message");

  // --- input sampling ------------------------------------------------------
  stats::Rng sample_rng = stats::Rng(ctx.seed).fork("dist-probe");
  out["dist.sample_ns"] = {ns_per_op(20000,
                                     [&](std::size_t i) {
                                       return w.cells[i % w.cells.size()]
                                           .ensemble->sample(sample_rng)
                                           .popcount();
                                     }),
                           "ns"};

  // --- G tester cost where the campaign makes no G call --------------------
  if (tracer.durations_ns("testers.test_g").empty()) {
    const std::uint32_t g_span = tracer.intern("testers.test_g");
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const ScopedSpan s(tracer, g_span);
      const std::vector<sim::PartyId> conditioned =
          w.cells[c].spec.corrupted.empty() ? std::vector<sim::PartyId>{0}
                                            : w.cells[c].spec.corrupted;
      (void)testers::test_g(pass.samples[c], conditioned);
    }
  }

  crypto_probes(ctx.seed, out, errors);
}

}  // namespace perfbench
