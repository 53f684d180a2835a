#include "core/session.h"

#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "obs/trace.h"
#include "sim/network.h"

namespace simulcast::core {

Session::Session(std::string protocol, std::size_t n, exec::RunConfig config)
    : protocol_(make_protocol(protocol)), config_(std::move(config)) {
  params_.n = n;
}

std::size_t Session::max_corruptions() const {
  return protocol_->max_corruptions(params_.n);
}

SessionResult Session::run(const BitVec& inputs, std::uint64_t seed) const {
  return run_with_adversary(inputs, {}, adversary::silent_factory(), seed);
}

SessionResult Session::run_with_adversary(const BitVec& inputs,
                                          const std::vector<sim::PartyId>& corrupted,
                                          const adversary::AdversaryFactory& adversary,
                                          std::uint64_t seed) const {
  // The serial single-execution path; batch sweeps get their "rep" spans
  // from the engine instead.
  obs::TraceSpan span("session");
  span.arg("n", params_.n);
  sim::ExecutionConfig config;
  config.seed = seed;
  config.corrupted = corrupted;
  // The conditions the batch path gets from the Runner, so serial and batch
  // runs of one seed stay identical.
  config.faults = config_.faults;
  config.transport = config_.transport;
  config.chaos = config_.chaos;
  config.net_timeout = config_.net_timeout;

  const std::unique_ptr<sim::Adversary> adv = adversary();
  const sim::ExecutionResult exec =
      sim::run_execution(*protocol_, params_, inputs, *adv, config);
  const broadcast::Announced announced = broadcast::extract_announced(exec, corrupted);

  SessionResult result;
  result.announced = announced.consistent ? announced.w : BitVec(params_.n);
  result.consistent = announced.consistent;
  result.correct = broadcast::correct_for_honest(announced, inputs, corrupted);
  result.rounds = exec.rounds;
  result.traffic = exec.traffic;
  return result;
}

SessionBatch Session::run_batch_seeded(const std::vector<BitVec>& inputs,
                                       const std::vector<std::uint64_t>& seeds,
                                       const std::vector<sim::PartyId>& corrupted,
                                       const adversary::AdversaryFactory& adversary,
                                       std::size_t threads) const {
  exec::RunSpec spec;
  spec.protocol = protocol_.get();
  spec.params = params_;
  spec.corrupted = corrupted;
  spec.adversary = adversary;

  exec::BatchResult batch = exec::Runner(threads, config_).run_batch(spec, inputs, seeds);

  SessionBatch out;
  out.report = batch.report;
  out.results.reserve(batch.samples.size());
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    const exec::Sample& s = batch.samples[i];
    SessionResult r;
    r.announced = s.announced;
    r.consistent = s.consistent;
    // correct_for_honest short-circuits on inconsistency, so rebuilding the
    // Announced view from the (possibly zeroed) sample vector is exact.
    r.correct = broadcast::correct_for_honest({s.announced, s.consistent}, inputs[i], corrupted);
    r.rounds = s.rounds;
    r.traffic = s.traffic;
    out.results.push_back(std::move(r));
  }
  return out;
}

}  // namespace simulcast::core
