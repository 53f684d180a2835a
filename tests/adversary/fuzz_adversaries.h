// Garbage-spraying adversaries for the robustness, channel-binding and
// attack-digest suites: no product binary runs them, they exist to attack
// every registered protocol with traffic an honest machine never sends.
#pragma once

#include <string>
#include <vector>

#include "adversary/adversaries.h"
#include "crypto/hmac.h"
#include "protocols/naive_commit_reveal.h"
#include "protocols/seq_broadcast.h"
#include "protocols/theta.h"
#include "protocols/theta_mpc.h"
#include "protocols/vss_core.h"
#include "sim/adversary.h"

namespace simulcast::adversary {

/// The message tags of a registered protocol, for FuzzAdversary to spray.
inline std::vector<sim::Tag> protocol_tags(const std::string& protocol) {
  using namespace protocols;
  if (protocol == "seq-broadcast") return {kSeqAnnounceTag};
  if (protocol == "naive-commit-reveal") return {kNcrCommitTag, kNcrOpenTag};
  if (protocol == "flawed-pi-g") return {kThetaInputTag, kThetaOutputTag};
  if (protocol == "flawed-pi-g-mpc")
    return {kTmpcBitTag, kTmpcCommitTag, kTmpcShareTag, kTmpcComplainTag, kTmpcJustifyTag,
            kTmpcRevealTag};
  if (protocol == "seq-broadcast-ds") return {"ds-root", "ds-relay"};
  // VSS skeleton protocols.
  return {kVssCommitTag,  kVssShareTag,    kVssComplainTag, kVssJustifyTag,
          kVssRevealTag,  kPokCommitTag,   kPokChallengeTag, kPokResponseTag};
}

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

/// Share mangler: runs the honest machines (PassiveAdversary) and garbles
/// some of their traffic, each outgoing message by one adversary-DRBG draw:
/// dropped (1 in 8), one byte flipped (1 in 8), or sent and also echoed
/// point-to-point to a party the DRBG picks (1 in 8).  The shares,
/// justifications and reveals it flips exercise every rejection path of a
/// VSS receiver with traffic that is otherwise well formed.
class MangleAdversary final : public sim::Adversary {
 public:
  MangleAdversary(const sim::ParallelBroadcastProtocol& protocol,
                  const sim::ProtocolParams& params)
      : inner_(protocol, params) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
    inner_.setup(info, drbg);
    corrupted_ = info.corrupted;
    n_ = info.n;
    drbg_ = &drbg;
  }

  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override {
    sim::AdversarySender honest(corrupted_);
    inner_.on_round(round, view, honest);
    for (sim::Message& m : honest.take_outbox()) {
      const std::uint64_t fate = drbg_->below(8);
      if (fate == 0) continue;
      if (fate == 1 && !m.payload.empty()) m.payload[drbg_->below(m.payload.size())] ^= 0x5a;
      if (fate == 2) sender.send(m.from, drbg_->below(n_), m.tag, m.payload);
      if (m.to == sim::kBroadcast)
        sender.broadcast(m.from, m.tag, std::move(m.payload));
      else
        sender.send(m.from, m.to, m.tag, std::move(m.payload));
    }
  }

 private:
  PassiveAdversary inner_;
  std::vector<sim::PartyId> corrupted_;
  std::size_t n_ = 0;
  crypto::HmacDrbg* drbg_ = nullptr;
};

}  // namespace simulcast::adversary
