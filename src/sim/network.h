// The round scheduler: runs one execution of a parallel-broadcast protocol
// against an adversary and returns outputs plus traffic metrics.
//
// Determinism: the whole execution is a pure function of
// (protocol, adversary, inputs, seed, config).  Per-party DRBGs, the
// adversary DRBG and the functionality DRBG are all derived from the seed
// with distinct personalization strings.
//
// Rushing order within each round r:
//   1. deliver messages sent in round r-1,
//   2. honest parties (and the functionality) compute and queue round-r
//      messages,
//   3. the adversary sees its round-r entitlement (deliveries + rushable
//      same-round honest traffic) and queues corrupted round-r messages.
// After the final round there is one last delivery into Party::finish.
//
// Faults: an ExecutionConfig may carry a FaultPlan (sim/faults.h) applied
// at delivery time — drops, bounded delays, crash schedules and link
// partitions, all drawn from a DRBG forked from the master seed so faulty
// executions replay exactly.  A party that throws ProtocolError mid-round
// (e.g. on traffic mutilated by faults) fails in place — its machine stops,
// the execution continues, and its output becomes nullopt — it never takes
// the whole execution down.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "base/bitvec.h"
#include "net/chaos.h"
#include "net/transport.h"
#include "sim/adversary.h"
#include "sim/faults.h"
#include "sim/protocol.h"

namespace simulcast::sim {

struct ExecutionConfig {
  std::uint64_t seed = 0;            ///< master seed of the execution
  std::vector<PartyId> corrupted;    ///< the static corruption set B (sorted or not)
  Bytes auxiliary_input;             ///< adversary auxiliary input z
  bool private_channels = true;      ///< false lets the adversary read all p2p traffic
  bool record_trace = false;         ///< keep every message for debugging
  /// Deterministic fault injection (sim/faults.h).  The default (empty)
  /// plan leaves the execution byte-identical to a faultless run.
  FaultPlan faults;
  /// Cooperative watchdog deadline (exec::BatchOptions::rep_timeout).  When
  /// set, the scheduler polls the wall clock at every round boundary — the
  /// only safe abandonment point, since mid-round state is unrecoverable —
  /// and throws TimeoutError once past it.  The default (epoch) disables
  /// the check entirely, so watchdog-free executions never read the clock.
  std::chrono::steady_clock::time_point deadline{};
  /// Transport backend moving messages between rounds (net/transport.h).
  /// Defaults to net::default_transport_kind() (the --transport= knob),
  /// which is the bit-identical in-process backend unless overridden.
  /// Samples and verdicts are transport-invariant, so the backend is not
  /// part of a campaign's identity.
  net::TransportKind transport = net::default_transport_kind();
  /// Wire-chaos conditions (net/chaos.h, the --chaos= knob; inert by
  /// default).  Recoverable chaos leaves samples and verdicts bit-identical
  /// to a clean run, so — like the transport backend — the spec is not part
  /// of a campaign's identity.  Ignored by the in-process backend (no wire
  /// to disturb).
  net::ChaosSpec chaos;
  /// Stall deadline for the socket and process backends (--net-timeout).
  std::chrono::milliseconds net_timeout = net::kDefaultNetTimeout;
};

struct TrafficStats {
  std::size_t messages = 0;        ///< send operations (a broadcast counts once)
  std::size_t point_to_point = 0;  ///< p2p sends
  std::size_t broadcasts = 0;      ///< broadcast-channel sends
  // Serialized traffic, priced with the net/wire.h frame encoding
  // (net::encoded_size).  Computed per send, pre-fault, so the numbers are
  // identical on every transport backend and safe to checkpoint.
  std::size_t wire_bytes = 0;           ///< serialized frame bytes over sends
  std::size_t wire_delivered_bytes = 0; ///< frame bytes times fan-out
  // Fault accounting (all zero unless an ExecutionConfig carries a
  // nonempty FaultPlan; see sim/faults.h).
  std::size_t dropped = 0;         ///< messages never delivered (drop draw, or delayed past the end)
  std::size_t delayed = 0;         ///< messages assigned a nonzero delivery delay
  std::size_t blocked = 0;         ///< p2p link-deliveries suppressed by partitions
  std::size_t crashed = 0;         ///< honest parties crashed by the plan

  bool operator==(const TrafficStats&) const = default;
  TrafficStats& operator+=(const TrafficStats& other) noexcept;
};

/// Every TrafficStats counter with its name, in declaration order: the
/// order of the BENCH record's "traffic" object and of a checkpoint slot's
/// traffic tokens.  Sums, the record writer and the checkpoint codec all
/// iterate this one table.
inline constexpr std::pair<std::size_t TrafficStats::*, const char*> kTrafficColumns[] = {
    {&TrafficStats::messages, "messages"},
    {&TrafficStats::point_to_point, "point_to_point"},
    {&TrafficStats::broadcasts, "broadcasts"},
    {&TrafficStats::wire_bytes, "wire_bytes"},
    {&TrafficStats::wire_delivered_bytes, "wire_delivered_bytes"},
    {&TrafficStats::dropped, "dropped"},
    {&TrafficStats::delayed, "delayed"},
    {&TrafficStats::blocked, "blocked"},
    {&TrafficStats::crashed, "crashed"},
};

inline TrafficStats& TrafficStats::operator+=(const TrafficStats& other) noexcept {
  for (const auto& [column, name] : kTrafficColumns) this->*column += other.*column;
  return *this;
}

struct ExecutionResult {
  /// Party outputs; nullopt for corrupted parties (the adversary has no
  /// prescribed output vector) and for honest parties that failed.
  std::vector<std::optional<BitVec>> outputs;
  Bytes adversary_output;
  std::size_t rounds = 0;
  TrafficStats traffic;
  /// Honest parties crashed by the fault plan, in crash order (by round,
  /// then by id within a round).
  std::vector<PartyId> crashed;
  /// All messages by round (only when record_trace was set).
  std::vector<std::vector<Message>> trace;

  /// True when all honest outputs are equal (the consistency property).
  [[nodiscard]] bool honest_outputs_consistent(const std::vector<PartyId>& corrupted) const;
};

/// Runs one execution.  `inputs` has one bit per party; corrupted parties'
/// bits are handed to the adversary, not to honest machines.  Throws
/// UsageError on malformed configuration (corrupted set out of range, too
/// many corruptions for the protocol, wrong input width).
[[nodiscard]] ExecutionResult run_execution(const ParallelBroadcastProtocol& protocol,
                                            const ProtocolParams& params, const BitVec& inputs,
                                            Adversary& adversary, const ExecutionConfig& config);

/// Worker-process protocol resolution: a spawned worker knows its
/// protocol only by registry name, and the sim layer cannot see the
/// registry (core depends on sim, not the reverse).  core/registry.cpp
/// installs core::make_protocol here at static-init time; test binaries
/// with local protocols install a chaining resolver in main() before
/// maybe_worker_main.  The resolver throws (or returns null) on an unknown
/// name, which the worker turns into a handshake rejection.  A resolver
/// is free to hand back a wrapper of a registered protocol — the process
/// tests kill a worker mid-round that way.
using WorkerProtocolResolver =
    std::unique_ptr<ParallelBroadcastProtocol> (*)(std::string_view name);
void set_worker_protocol_resolver(WorkerProtocolResolver resolver) noexcept;

/// The process-transport worker entry (net/worker.h for the control
/// protocol): call first thing in main — drivers get it through
/// exec::configure.  Returns -1 when argv carries no
/// --simulcast-worker-fd flag, and the caller proceeds as a normal
/// process.  Otherwise this process is a worker: it reads the hello on
/// that descriptor, checks it, builds the party machine through the
/// resolver, acks, serves the coordinator's RPCs, and returns the exit
/// code for the caller to exit with.  Codes: 0 done (or shut down by
/// EOF); 3 argv or hello rejected — a malformed fd or timeout is refused
/// before any descriptor is touched, and a rejected hello is never acked;
/// 4 an unexpected exception; 5 the coordinator went silent or the wire's
/// retransmit budget ran out; 6 an unexpected frame.  Never throws.
[[nodiscard]] int maybe_worker_main(int argc, char** argv);

}  // namespace simulcast::sim
