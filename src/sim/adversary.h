// The adversary interface: a single PPT entity that statically corrupts a
// fixed set B of parties and is rushing (Section 3.1 of the paper).
//
// Rushing is implemented by the scheduler's per-round ordering: honest
// parties emit their round-r messages first, the adversary is then shown
// every round-r message it is entitled to read, and only afterwards does it
// emit the corrupted parties' round-r messages.  So corrupted messages may
// depend on honest same-round traffic, exactly as in the model.
//
// What the adversary reads: everything delivered to corrupted parties,
// every broadcast-channel message, and - when the execution is configured
// with private_channels = false - all point-to-point traffic too.  The
// paper lets A "read all communication channels"; protocols that need
// secret point-to-point channels (VSS shares) assume encrypted links, which
// we model with private_channels = true (the default; see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "base/bitvec.h"
#include "base/bytes.h"
#include "crypto/hmac.h"
#include "sim/message.h"

namespace simulcast::sim {

/// Static information handed to the adversary before round 0.
struct CorruptionInfo {
  std::vector<PartyId> corrupted;  ///< the set B, sorted
  BitVec corrupted_inputs;         ///< x_B in the order of `corrupted`
  Bytes auxiliary_input;           ///< the paper's z
  std::size_t n = 0;
};

/// What the adversary observes in one round.  Both views reference
/// scheduler-owned buffers and are valid only during on_round; copy out
/// anything that must persist across rounds.
struct AdversaryView {
  Round round = 0;
  /// Messages delivered to corrupted parties at the start of this round.
  Inbox delivered;
  /// Same-round honest traffic the adversary may rush on: broadcasts,
  /// messages to corrupted parties, and (if channels are public) all
  /// point-to-point messages.
  Inbox rushed;
};

/// Outbox through which the adversary sends on behalf of corrupted parties.
class AdversarySender {
 public:
  explicit AdversarySender(std::vector<PartyId> corrupted) : corrupted_(std::move(corrupted)) {}

  /// Sends a point-to-point message from corrupted party `from`.
  /// Throws UsageError if `from` is not corrupted.
  void send(PartyId from, PartyId to, Tag tag, Bytes payload);

  /// Broadcast-channel message from corrupted party `from`.
  void broadcast(PartyId from, Tag tag, Bytes payload);

  [[nodiscard]] std::vector<Message> take_outbox() noexcept { return std::move(outbox_); }

 private:
  void check_from(PartyId from) const;

  std::vector<PartyId> corrupted_;
  std::vector<Message> outbox_;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Called once before round 0 with the corruption set, corrupted inputs,
  /// auxiliary input, and a dedicated DRBG.
  virtual void setup(const CorruptionInfo& info, crypto::HmacDrbg& drbg) = 0;

  /// Called once per round, after honest parties have sent (rushing).
  virtual void on_round(Round round, const AdversaryView& view, AdversarySender& sender) = 0;

  /// The adversary's final output (first coordinate of the paper's
  /// Exec vector; consumed by the Sb tester's distinguishers).
  [[nodiscard]] virtual Bytes output() const { return {}; }
};

}  // namespace simulcast::sim
