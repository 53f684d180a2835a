// Garbage-spraying adversaries for the robustness and channel-binding
// suites: no product binary runs them, they exist to attack every
// registered protocol with traffic an honest machine never sends.
#pragma once

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "sim/adversary.h"

namespace simulcast::adversary {

/// Protocol fuzzer: every round, each corrupted party sprays a random
/// number of messages with tags drawn from the target protocol's tag set
/// (plus junk tags), random destinations (parties, broadcast, the
/// functionality) and random payloads of random length.  No garbage may
/// ever break consistency or honest-party correctness, and nothing may
/// crash.
class FuzzAdversary final : public sim::Adversary {
 public:
  /// `tags` should include the victim protocol's message tags;
  /// `max_messages_per_round` bounds the per-party spray.
  FuzzAdversary(std::vector<sim::Tag> tags, std::size_t max_messages_per_round = 4)
      : tags_(std::move(tags)), max_per_round_(max_messages_per_round) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
    corrupted_ = info.corrupted;
    n_ = info.n;
    drbg_ = &drbg;
  }

  void on_round(sim::Round /*round*/, const sim::AdversaryView& /*view*/,
                sim::AdversarySender& sender) override {
    for (const sim::PartyId from : corrupted_) {
      const std::uint64_t count = drbg_->below(max_per_round_ + 1);
      for (std::uint64_t k = 0; k < count; ++k) {
        // Tag: mostly protocol tags, sometimes junk.
        sim::Tag tag;
        if (!tags_.empty() && drbg_->below(4) != 0)
          tag = tags_[drbg_->below(tags_.size())];
        else
          tag = sim::Tag("fuzz-" + std::to_string(drbg_->below(1000)));
        // Destination: a party, the broadcast channel, or the functionality.
        const std::uint64_t dest_kind = drbg_->below(4);
        const Bytes payload = drbg_->generate(drbg_->below(65));
        if (dest_kind == 0)
          sender.broadcast(from, tag, payload);
        else if (dest_kind == 1)
          sender.send(from, sim::kFunctionality, tag, payload);
        else
          sender.send(from, drbg_->below(n_), tag, payload);
      }
    }
  }

 private:
  std::vector<sim::Tag> tags_;
  std::size_t max_per_round_;
  std::vector<sim::PartyId> corrupted_;
  std::size_t n_ = 0;
  crypto::HmacDrbg* drbg_ = nullptr;
};

/// Replayer: re-sends, verbatim under its own identities, every honest
/// message it is allowed to observe (broadcasts and messages to corrupted
/// parties).  Catches missing origin/label binding in protocol messages.
class ReplayAdversary final : public sim::Adversary {
 public:
  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& /*drbg*/) override {
    corrupted_ = info.corrupted;
  }

  void on_round(sim::Round /*round*/, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override {
    const auto replay = [&](const sim::Message& m) {
      for (const sim::PartyId from : corrupted_) {
        if (m.to == sim::kBroadcast)
          sender.broadcast(from, m.tag, m.payload);
        else
          sender.send(from, m.to, m.tag, m.payload);
      }
    };
    for (const sim::Message& m : view.rushed) replay(m);
    for (const sim::Message& m : view.delivered) replay(m);
  }

 private:
  std::vector<sim::PartyId> corrupted_;
};

}  // namespace simulcast::adversary
