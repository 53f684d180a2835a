// Echo ("crusader"-style) broadcast: a cheap 2-round single-sender
// broadcast over point-to-point channels.
//
// Round 0: the sender sends its bit to everyone.  Round 1: every party
// echoes what it received to everyone.  A party outputs v iff at least
// n - t parties (counting itself) echoed v; otherwise the default 0.
//
// This primitive is deliberately weaker than Dolev-Strong: with an honest
// sender it is correct and consistent, but an equivocating corrupted sender
// can drive different honest parties to different outputs when echo
// quorums overlap (demonstrated in tests/broadcast/echo_broadcast_test.cpp).
// That test is its only user: no protocol, driver or benchmark builds on
// it, so no product binary links it.
#pragma once

#include "sim/protocol.h"

namespace simulcast::broadcast {

class EchoBroadcast final : public sim::ParallelBroadcastProtocol {
 public:
  EchoBroadcast(sim::PartyId sender, std::size_t t) : sender_(sender), t_(t) {}

  [[nodiscard]] std::string name() const override { return "echo-broadcast"; }
  [[nodiscard]] std::size_t rounds(std::size_t /*n*/) const override { return 2; }
  [[nodiscard]] std::size_t max_corruptions(std::size_t /*n*/) const override { return t_; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams& params) const override;

  [[nodiscard]] sim::PartyId sender() const noexcept { return sender_; }

 private:
  sim::PartyId sender_;
  std::size_t t_;
};

}  // namespace simulcast::broadcast
