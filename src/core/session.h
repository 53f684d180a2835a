// High-level facade: "n parties simultaneously broadcast their bits".
//
// This is the 10-line entry point the examples build on.  It hides the
// scheduler, the adversary plumbing and the announced-vector extraction;
// callers pick a protocol, optionally a corruption set with an adversary,
// and get back the announced vector W with its consistency/correctness
// status.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversaries.h"
#include "base/bitvec.h"
#include "exec/runner.h"
#include "sim/protocol.h"

namespace simulcast::core {

struct SessionResult {
  BitVec announced;        ///< W (Definition 3.1)
  bool consistent = false; ///< honest outputs agreed
  bool correct = false;    ///< honest coordinates match honest inputs
  std::size_t rounds = 0;
  /// Full execution accounting — the same sim::TrafficStats the batch path
  /// aggregates, so serial and batch runs of one seed report identically.
  sim::TrafficStats traffic;

  [[nodiscard]] std::size_t messages() const { return traffic.messages; }
  [[nodiscard]] std::size_t wire_bytes() const { return traffic.wire_bytes; }
};

/// A repetition sweep's results plus the engine's batch accounting.
struct SessionBatch {
  std::vector<SessionResult> results;  ///< one per input vector, in order
  exec::BatchReport report;
};

class Session {
 public:
  /// `protocol` is a registry name (core/registry.h).  Every execution,
  /// serial or batch, runs under `config`: its transport, chaos, net
  /// timeout and fault plan, and for batches its pool width and resilience
  /// options.
  Session(std::string protocol, std::size_t n, exec::RunConfig config = exec::run_config());

  /// Largest corruption count the protocol tolerates.
  [[nodiscard]] std::size_t max_corruptions() const;

  /// Runs with every party honest.
  [[nodiscard]] SessionResult run(const BitVec& inputs, std::uint64_t seed) const;

  /// Runs with the given corrupted set driven by the adversary factory.
  [[nodiscard]] SessionResult run_with_adversary(
      const BitVec& inputs, const std::vector<sim::PartyId>& corrupted,
      const adversary::AdversaryFactory& adversary, std::uint64_t seed) const;

  /// Repetition sweep over caller-derived per-session seeds (ValueBroadcast's
  /// per-bit sessions, the election example), sharded across `threads`
  /// workers (0 = the config's width).  Results are ordered and
  /// bit-identical for every thread count.
  [[nodiscard]] SessionBatch run_batch_seeded(
      const std::vector<BitVec>& inputs, const std::vector<std::uint64_t>& seeds,
      const std::vector<sim::PartyId>& corrupted, const adversary::AdversaryFactory& adversary,
      std::size_t threads = 0) const;

  [[nodiscard]] const sim::ParallelBroadcastProtocol& protocol() const { return *protocol_; }
  [[nodiscard]] const sim::ProtocolParams& params() const { return params_; }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> protocol_;
  sim::ProtocolParams params_;
  exec::RunConfig config_;
};

}  // namespace simulcast::core
