#include "adversary/adversaries.h"

#include <algorithm>

#include "base/error.h"
#include "protocols/naive_commit_reveal.h"
#include "protocols/seq_broadcast.h"
#include "protocols/theta.h"

namespace simulcast::adversary {

namespace {

/// Inbox a corrupted machine with this id would have received.
std::vector<sim::Message> inbox_for(const sim::Inbox& delivered,
                                    sim::PartyId id) {
  std::vector<sim::Message> inbox;
  for (const sim::Message& m : delivered)
    if (m.to == id || (m.to == sim::kBroadcast && m.from != id)) inbox.push_back(m);
  return inbox;
}

}  // namespace

PassiveAdversary::PassiveAdversary(const sim::ParallelBroadcastProtocol& protocol,
                                   const sim::ProtocolParams& params)
    : PassiveAdversary([&protocol, params](std::size_t /*j*/, sim::PartyId id, bool input) {
        return protocol.make_party(id, input, params);
      }) {}

void PassiveAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) {
  corrupted_ = info.corrupted;
  for (std::size_t j = 0; j < corrupted_.size(); ++j) {
    const sim::PartyId id = corrupted_[j];
    machines_.push_back(make_machine_(j, id, info.corrupted_inputs.get(j)));
    drbgs_.emplace_back(drbg.generate(32));
    contexts_.emplace_back(id, info.n, info.k, drbgs_.back());
    machines_.back()->begin(contexts_.back());
  }
}

void PassiveAdversary::on_round(sim::Round round, const sim::AdversaryView& view,
                                sim::AdversarySender& sender) {
  for (std::size_t j = 0; j < corrupted_.size(); ++j) {
    machines_[j]->on_round(round, inbox_for(view.delivered, corrupted_[j]), contexts_[j]);
    for (sim::Message& m : contexts_[j].take_outbox()) {
      if (m.to == sim::kBroadcast)
        sender.broadcast(corrupted_[j], m.tag, m.payload);
      else
        sender.send(corrupted_[j], m.to, m.tag, m.payload);
    }
  }
}

void SilentAdversary::setup(const sim::CorruptionInfo& /*info*/, crypto::HmacDrbg& /*drbg*/) {}

void SilentAdversary::on_round(sim::Round /*round*/, const sim::AdversaryView& /*view*/,
                               sim::AdversarySender& /*sender*/) {}

void CopyLastAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& /*drbg*/) {
  corrupted_ = info.corrupted;
  inputs_ = info.corrupted_inputs;
  if (corrupted_.empty()) throw UsageError("CopyLastAdversary: needs a corrupted party");
  copier_ = *std::max_element(corrupted_.begin(), corrupted_.end());
  if (copier_ <= victim_) throw UsageError("CopyLastAdversary: copier must announce after victim");
  if (std::find(corrupted_.begin(), corrupted_.end(), victim_) != corrupted_.end())
    throw UsageError("CopyLastAdversary: victim must be honest");
}

void CopyLastAdversary::on_round(sim::Round round, const sim::AdversaryView& view,
                                 sim::AdversarySender& sender) {
  const auto scan = [&](const sim::Inbox& pool) {
    for (const sim::Message& m : pool) {
      if (m.tag == protocols::kSeqAnnounceTag && m.from == victim_ && m.payload.size() == 1 &&
          m.round == victim_ && !victim_bit_.has_value())
        victim_bit_ = m.payload[0] != 0;
    }
  };
  scan(view.delivered);
  scan(view.rushed);

  for (std::size_t j = 0; j < corrupted_.size(); ++j) {
    const sim::PartyId id = corrupted_[j];
    if (round != id) continue;  // SeqBroadcast schedule: party i announces in round i
    const bool bit = (id == copier_) ? victim_bit_.value_or(false) : inputs_.get(j);
    sender.broadcast(id, protocols::kSeqAnnounceTag,
                     Bytes{bit ? std::uint8_t{1} : std::uint8_t{0}});
  }
}

void ParityAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& /*drbg*/) {
  if (info.corrupted.size() < 2) throw UsageError("ParityAdversary: needs >= 2 corruptions");
  corrupted_ = info.corrupted;
  inputs_ = info.corrupted_inputs;
}

void ParityAdversary::on_round(sim::Round round, const sim::AdversaryView& /*view*/,
                               sim::AdversarySender& sender) {
  if (round != 0) return;
  for (std::size_t j = 0; j < corrupted_.size(); ++j) {
    const bool lit = j < 2;  // exactly two parties raise the auxiliary bit
    sender.send(corrupted_[j], sim::kFunctionality, protocols::kThetaInputTag,
                protocols::encode_theta_input({inputs_.get(j), lit}));
  }
}

void SelectiveAbortAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) {
  if (info.corrupted.empty()) throw UsageError("SelectiveAbortAdversary: needs a corruption");
  if (std::find(info.corrupted.begin(), info.corrupted.end(), victim_) != info.corrupted.end())
    throw UsageError("SelectiveAbortAdversary: victim must be honest");
  corrupted_ = info.corrupted;
  inputs_ = info.corrupted_inputs;
  drbg_ = &drbg;
}

void SelectiveAbortAdversary::on_round(sim::Round round, const sim::AdversaryView& view,
                                       sim::AdversarySender& sender) {
  if (round == 0) {
    for (std::size_t j = 0; j < corrupted_.size(); ++j) {
      const sim::PartyId id = corrupted_[j];
      // The aborter (j == 0) always commits to 1 so that "reveal" and
      // "withhold" announce distinguishable values; others commit honestly.
      const bool bit = (j == 0) ? true : inputs_.get(j);
      const Bytes message{bit ? std::uint8_t{1} : std::uint8_t{0}};
      const crypto::Opening op = scheme_->make_opening(message, *drbg_);
      openings_.emplace(id, op);
      sender.broadcast(id, protocols::kNcrCommitTag,
                       scheme_->commit(protocols::ncr_label(id), op).value);
    }
    return;
  }
  if (round != 1) return;
  // Rush: read the honest victim's same-round opening.
  std::optional<bool> victim_bit;
  for (const sim::Message& m : view.rushed) {
    if (m.tag != protocols::kNcrOpenTag || m.from != victim_) continue;
    try {
      ByteReader r(m.payload);
      const ByteSpan msg = r.field();
      if (msg.size() == 1 && msg[0] <= 1) victim_bit = msg[0] == 1;
    } catch (const Error&) {
    }
  }
  for (std::size_t j = 0; j < corrupted_.size(); ++j) {
    const sim::PartyId id = corrupted_[j];
    const bool reveal = (j == 0) ? victim_bit.value_or(false) : true;
    if (!reveal) continue;  // withheld opening -> announced 0
    const crypto::Opening& op = openings_.at(id);
    ByteWriter w;
    w.bytes(op.message);
    w.bytes(op.randomness);
    sender.broadcast(id, protocols::kNcrOpenTag, w.take());
  }
}

ShareSnoopAdversary::ShareSnoopAdversary(sim::PartyId victim, protocols::VssSchedule schedule)
    : PassiveAdversary([schedule](std::size_t j, sim::PartyId /*id*/, bool input) {
        // The copier's input is overwritten with the stolen bit before its
        // deal round.
        return std::make_unique<protocols::VssProtocolParty>(schedule, j == 0 ? false : input);
      }),
      victim_(victim),
      schedule_(std::move(schedule)) {}

void ShareSnoopAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) {
  if (info.corrupted.empty()) throw UsageError("ShareSnoopAdversary: needs a corruption");
  for (sim::PartyId id : info.corrupted) {
    if (schedule_.deal_round[id] <= schedule_.deal_round[victim_])
      throw UsageError("ShareSnoopAdversary: corrupted dealer must deal after the victim");
  }
  PassiveAdversary::setup(info, drbg);
}

void ShareSnoopAdversary::on_round(sim::Round round, const sim::AdversaryView& view,
                                   sim::AdversarySender& sender) {
  // Snoop: every share the victim deals that the adversary may read shows
  // up in the rushed view of the round it is sent (all of them on public
  // channels, only those to corrupted parties on private ones).
  if (!stolen_bit_.has_value()) {
    const crypto::PedersenVss vss;
    for (const sim::Message& m : view.rushed) {
      if (m.tag != protocols::kVssShareTag || m.from != victim_) continue;
      try {
        snooped_.push_back(crypto::decode_pedersen_share(m.payload, vss.group().q()));
      } catch (const Error&) {
      }
    }
    if (snooped_.size() >= schedule_.threshold + 1) {
      snooped_.resize(schedule_.threshold + 1);
      stolen_bit_ = vss.reconstruct(snooped_).value() == 1;
      static_cast<protocols::VssProtocolParty&>(machine(0)).set_input(*stolen_bit_);
    }
  }
  PassiveAdversary::on_round(round, view, sender);
}

ThetaMpcParityAdversary::ThetaMpcParityAdversary(const protocols::ThetaMpcProtocol& protocol,
                                                 const sim::ProtocolParams& params)
    : PassiveAdversary([&protocol, params](std::size_t j, sim::PartyId id, bool input) {
        return protocol.make_attack_party(id, input, /*lit=*/j < 2, params);
      }) {}

void ThetaMpcParityAdversary::setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) {
  if (info.corrupted.size() < 2)
    throw UsageError("ThetaMpcParityAdversary: needs >= 2 corruptions");
  PassiveAdversary::setup(info, drbg);
}

AdversaryFactory passive_factory(const sim::ParallelBroadcastProtocol& protocol,
                                 const sim::ProtocolParams& params) {
  return [&protocol, params] { return std::make_unique<PassiveAdversary>(protocol, params); };
}

AdversaryFactory silent_factory() {
  return [] { return std::make_unique<SilentAdversary>(); };
}

AdversaryFactory copy_last_factory(sim::PartyId victim) {
  return [victim] { return std::make_unique<CopyLastAdversary>(victim); };
}

AdversaryFactory parity_factory() {
  return [] { return std::make_unique<ParityAdversary>(); };
}

AdversaryFactory selective_abort_factory(sim::PartyId victim,
                                         const crypto::CommitmentScheme& scheme) {
  return [victim, &scheme] { return std::make_unique<SelectiveAbortAdversary>(victim, scheme); };
}

AdversaryFactory theta_mpc_parity_factory(const protocols::ThetaMpcProtocol& protocol,
                                          const sim::ProtocolParams& params) {
  return [&protocol, params] {
    return std::make_unique<ThetaMpcParityAdversary>(protocol, params);
  };
}

AdversaryFactory share_snoop_factory(sim::PartyId victim, protocols::VssSchedule schedule) {
  return [victim, schedule] {
    return std::make_unique<ShareSnoopAdversary>(victim, schedule);
  };
}

}  // namespace simulcast::adversary
