// Deterministic fault injection for the round scheduler (sim/network.h).
//
// A FaultPlan extends the paper's ideal synchronous network (Section 3.1)
// with the failure modes the round-complexity literature is actually priced
// against — unreliable delivery (Dolev-Strong), bounded asynchrony and
// crash faults: per-message drops, bounded delivery delay in rounds,
// per-party crash-at-round schedules and link partitions.  The plan is part
// of ExecutionConfig, and every fault decision is drawn from a dedicated
// DRBG forked from the execution's master seed ("faults" personalization),
// so an execution stays a pure function of
// (protocol, adversary, inputs, seed, config, faults) and is bit-identical
// across exec::Runner thread counts.
//
// Scope of each fault (see DESIGN.md section 9):
//   - drops and delays apply per *message* (a dropped broadcast is lost for
//     every recipient), at the moment the scheduler routes the round's
//     outgoing traffic;
//   - partitions cut point-to-point links only: the broadcast channel is a
//     primitive (its reliability is the abstraction), and messages to or
//     from the trusted functionality model an ideal subprotocol, so both
//     are exempt from every fault;
//   - a crash stops an honest party at the *start* of the given round: its
//     machine is destroyed, it never sends again, and its output becomes
//     nullopt.  Crashing a corrupted party is a no-op (the adversary, not a
//     machine, acts for it).
//
// The default-constructed (empty) plan injects nothing, draws nothing from
// the fault DRBG, and leaves every execution byte-identical to a run
// without the fault layer.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/message.h"

namespace simulcast::sim {

/// Honest party `party` stops at the start of round `round` (round ==
/// rounds(n) means it fails just before the final delivery / finish).
struct CrashFault {
  PartyId party = 0;
  Round round = 0;
};

/// Cuts every point-to-point link between `side` and its complement while
/// the delivery round is in [from, until).
struct Partition {
  std::vector<PartyId> side;
  Round from = 0;
  Round until = std::numeric_limits<Round>::max();
};

struct FaultPlan {
  /// Per-message i.i.d. drop probability, in [0, 1].
  double drop_probability = 0.0;
  /// Per-message delivery delay, uniform in [0, max_delay] extra rounds.
  /// A message delayed past the final delivery is lost (counted dropped).
  /// At most kMaxDelay.
  std::size_t max_delay = 0;
  std::vector<CrashFault> crashes;
  std::vector<Partition> partitions;

  /// True when the plan injects nothing; run_execution then never
  /// instantiates the fault DRBG and behaves exactly as before the fault
  /// layer existed.
  [[nodiscard]] bool empty() const noexcept;

  /// The largest max_delay: 2^32 rounds, so neither max_delay + 1 nor a
  /// delivery slot round + 1 + delay can wrap.  Every larger delay would
  /// land past the final delivery anyway, i.e. act as a drop.
  static constexpr std::size_t kMaxDelay = std::size_t{1} << 32;

  /// Throws UsageError on a malformed plan for an n-party execution:
  /// drop_probability outside [0, 1], max_delay above kMaxDelay, a crash or
  /// partition member id >= n, or an empty partition side.
  void validate(std::size_t n) const;

  /// One-line human-readable form ("drop=0.05 delay<=2 crash=[1@0] ..."),
  /// used by reproducer printouts and experiment setup lines; "none" for
  /// the empty plan.
  [[nodiscard]] std::string summary() const;
};

/// Parses a "--crash=" style schedule: "party@round[,party@round...]".
/// Throws UsageError on malformed input.
[[nodiscard]] std::vector<CrashFault> parse_crash_schedule(std::string_view text);

}  // namespace simulcast::sim
