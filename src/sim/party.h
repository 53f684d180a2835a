// The honest-party protocol machine interface.
//
// A Party is a deterministic state machine driven by the scheduler
// (sim/network.h); all of its randomness comes from the per-party DRBG in
// the PartyContext, so executions replay exactly from the execution seed.
// Protocols implement Party once per protocol (src/protocols) and the same
// machine is reused across all experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/bitvec.h"
#include "crypto/hmac.h"
#include "sim/message.h"
#include "sim/pool.h"

namespace simulcast::sim {

/// Per-party environment handed to the machine each round: identity,
/// population, private randomness and an outbox.
class PartyContext {
 public:
  PartyContext(PartyId id, std::size_t n, crypto::HmacDrbg& drbg, MessagePool* pool = nullptr)
      : id_(id), n_(n), drbg_(&drbg), pool_(pool) {}

  [[nodiscard]] PartyId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] crypto::HmacDrbg& drbg() noexcept { return *drbg_; }

  /// A ByteWriter over a pooled buffer (sim/pool.h): build the payload in
  /// it, then hand writer.take() to send()/broadcast().  Falls back to a
  /// fresh buffer when the context has no pool (tests).
  [[nodiscard]] ByteWriter writer() {
    return ByteWriter(pool_ != nullptr ? pool_->acquire() : Bytes{});
  }

  /// Queues a point-to-point message for delivery next round.
  void send(PartyId to, Tag tag, Bytes payload);

  /// Queues a broadcast-channel message (delivered to every other party).
  void broadcast(Tag tag, Bytes payload);

  /// Drains the queued messages (scheduler use).
  [[nodiscard]] std::vector<Message> take_outbox() noexcept { return std::move(outbox_); }

 private:
  PartyId id_;
  std::size_t n_;
  crypto::HmacDrbg* drbg_;
  MessagePool* pool_;
  std::vector<Message> outbox_;
};

/// An honest party's protocol machine.
class Party {
 public:
  virtual ~Party() = default;

  /// Called once before round 0 (no inbox yet).
  virtual void begin(PartyContext& /*ctx*/) {}

  /// Called for every round r = 0..R-1 with the messages delivered at the
  /// beginning of round r (those sent in round r-1).  Messages queued on the
  /// context are sent in round r.  The inbox is a view into scheduler-owned
  /// buffers, valid only for the duration of the call.
  virtual void on_round(Round round, const Inbox& inbox, PartyContext& ctx) = 0;

  /// Called once after the final round with the messages sent in round R-1.
  /// No further sending is possible.
  virtual void finish(const Inbox& inbox, PartyContext& ctx) = 0;

  /// The party's output vector B_i (Definition 3.1).  Must be valid after
  /// finish(); throws simulcast::ProtocolError if the protocol never reached
  /// an output.
  [[nodiscard]] virtual BitVec output() const = 0;
};

}  // namespace simulcast::sim
