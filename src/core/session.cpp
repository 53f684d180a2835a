#include "core/session.h"

#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"

namespace simulcast::core {

Session::Session(std::string protocol, std::size_t n, exec::RunConfig config)
    : protocol_(make_protocol(protocol)), config_(std::move(config)) {
  params_.n = n;
}

SessionResult Session::run(const BitVec& inputs, std::uint64_t seed) const {
  return run_with_adversary(inputs, {}, adversary::silent_factory(), seed);
}

SessionResult Session::run_with_adversary(const BitVec& inputs,
                                          const std::vector<sim::PartyId>& corrupted,
                                          const adversary::AdversaryFactory& adversary,
                                          std::uint64_t seed) const {
  // A one-slot batch: exec::run_one is the one place run conditions
  // become an execution.
  return run_batch_seeded({inputs}, {seed}, corrupted, adversary, 1).results.front();
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
