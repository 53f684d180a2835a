#include "protocols/vss_core.h"

#include <algorithm>

#include "base/error.h"

namespace simulcast::protocols {

namespace {

/// The share checks and the reconstruction of every ledger.
const crypto::PedersenVss& pedersen() {
  static const crypto::PedersenVss vss;
  return vss;
}

Bytes encode_justify(sim::PartyId complainer, const crypto::PedersenShare& share) {
  ByteWriter w;
  w.u64(complainer);
  w.bytes(crypto::encode_pedersen_share(share));
  return w.take();
}

Bytes encode_reveal(sim::PartyId dealer, const crypto::PedersenShare& share) {
  ByteWriter w;
  w.u64(dealer);
  w.bytes(crypto::encode_pedersen_share(share));
  return w.take();
}

}  // namespace

void VssSchedule::validate() const {
  if (n == 0 || n > kMaxBits) throw UsageError("VssSchedule: bad n");
  if (threshold >= (n + 1) / 2) throw UsageError("VssSchedule: threshold must satisfy t < n/2");
  if (deal_round.size() != n) throw UsageError("VssSchedule: deal_round size != n");
  for (sim::Round r : deal_round)
    if (r >= complaint_round) throw UsageError("VssSchedule: deal after complaint round");
  if (pok.has_value()) {
    if (pok->size() != n) throw UsageError("VssSchedule: pok size != n");
    for (std::size_t d = 0; d < n; ++d) {
      const PokRounds& p = (*pok)[d];
      if (p.commit <= deal_round[d] || p.challenge != p.commit + 1 ||
          p.response != p.challenge + 1 || p.response >= complaint_round)
        throw UsageError("VssSchedule: malformed pok rounds");
    }
  }
  if (!(complaint_round < justify_round && justify_round < reconstruct_round &&
        reconstruct_round < total_rounds))
    throw UsageError("VssSchedule: phases out of order");
}

void ShareLedger::set_commitments(std::vector<std::uint64_t> commitments) {
  if (!commitments_) commitments_ = std::move(commitments);
}

void ShareLedger::set_my_share(const crypto::PedersenShare& share) {
  if (!my_share_) my_share_ = share;
}

bool ShareLedger::verifies(const crypto::PedersenShare& share) const {
  return commitments_ && pedersen().verify_share(*commitments_, share);
}

bool ShareLedger::is_public(std::uint64_t point) const {
  return std::any_of(public_.begin(), public_.end(),
                     [point](const crypto::PedersenShare& s) { return s.x == point; });
}

void ShareLedger::publish(const crypto::PedersenShare& share) {
  if (!is_public(share.x) && verifies(share)) public_.push_back(share);
}

std::optional<crypto::Zq> ShareLedger::reconstruct(std::size_t threshold) const {
  std::vector<crypto::PedersenShare> pool(
      public_.begin(), public_.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(public_.size(), threshold + 1)));
  if (pool.size() <= threshold && my_share_verifies() && !is_public(my_share_->x))
    pool.push_back(*my_share_);
  if (pool.size() <= threshold) return std::nullopt;
  return pedersen().reconstruct(pool);
}

void ComplaintBook::file(sim::PartyId complainer, std::uint64_t mask) noexcept {
  for (std::size_t d = 0; d < pages_.size(); ++d)
    if ((mask >> d) & 1u) pages_[d].filed |= std::uint64_t{1} << complainer;
}

bool ComplaintBook::filed(sim::PartyId dealer, sim::PartyId complainer) const noexcept {
  return complainer < kMaxBits && ((pages_[dealer].filed >> complainer) & 1u) != 0;
}

void ComplaintBook::justify(sim::PartyId dealer, sim::PartyId complainer) noexcept {
  pages_[dealer].justified |= std::uint64_t{1} << complainer;
}

void ComplaintBook::decide(sim::PartyId dealer, bool dealt) noexcept {
  Page& page = pages_[dealer];
  page.disqualified = !dealt || (page.filed & ~page.justified) != 0;
}

VssProtocolParty::VssProtocolParty(VssSchedule schedule, bool input)
    : schedule_(std::move(schedule)), input_(input), group_(&crypto::SchnorrGroup::standard()) {
  schedule_.validate();
}

void VssProtocolParty::begin(sim::PartyContext& ctx) {
  me_ = ctx.id();
  dealers_.assign(schedule_.n, Dealer{});
  complaints_ = ComplaintBook(schedule_.n);
  result_ = BitVec(schedule_.n);
}

void VssProtocolParty::deal(sim::PartyContext& ctx) {
  const crypto::Zq secret{input_ ? std::uint64_t{1} : std::uint64_t{0}, group_->q()};
  my_deal_ = vss_.deal(secret, schedule_.threshold, schedule_.n, ctx.drbg());
  ctx.broadcast(kVssCommitTag, crypto::encode_group_elements(my_deal_->commitments));
  for (std::size_t j = 0; j < schedule_.n; ++j) {
    if (j == me_) continue;
    ctx.send(j, kVssShareTag, crypto::encode_pedersen_share(my_deal_->shares[j]));
  }
  // My own share and commitments, recorded directly.
  ShareLedger& self = dealers_[me_].shares;
  self.set_commitments(my_deal_->commitments);
  self.set_my_share(my_deal_->shares[me_]);
}

void VssProtocolParty::record(const sim::Inbox& inbox) {
  for (const sim::Message& m : inbox) {
    try {
      // Channel binding: every tag except the private share transfer is a
      // broadcast-channel message.  Accepting a point-to-point copy of a
      // "broadcast" would let the adversary equivocate - show different
      // commitments/complaints/reveals to different parties - and break
      // consistency (found by the fuzzing suite).
      if (m.tag != kVssShareTag && m.to != sim::kBroadcast) continue;
      if (m.tag == kVssCommitTag) {
        if (m.from >= schedule_.n || m.round != schedule_.deal_round[m.from]) continue;
        ShareLedger& dealer = dealers_[m.from].shares;
        if (dealer.has_commitments()) continue;  // first wins
        auto elems = crypto::decode_group_elements(m.payload);
        if (!vss_.verify_commitments(elems, schedule_.threshold)) continue;
        dealer.set_commitments(std::move(elems));
      } else if (m.tag == kVssShareTag) {
        if (m.from >= schedule_.n || m.round != schedule_.deal_round[m.from] || m.to != me_)
          continue;
        const auto share = crypto::decode_pedersen_share(m.payload, group_->q());
        if (share.x != me_ + 1) continue;
        dealers_[m.from].shares.set_my_share(share);
      } else if (m.tag == kPokCommitTag) {
        if (!schedule_.pok.has_value() || m.from >= schedule_.n) continue;
        if (m.round != (*schedule_.pok)[m.from].commit) continue;
        Dealer& dealer = dealers_[m.from];
        if (dealer.pok_a.has_value() || m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        dealer.pok_a = r.u64();
      } else if (m.tag == kPokChallengeTag) {
        if (m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        auto& per_round = challenge_contributions_[m.round];
        per_round.emplace(m.from, r.u64());  // first contribution wins
      } else if (m.tag == kPokResponseTag) {
        if (!schedule_.pok.has_value() || m.from >= schedule_.n) continue;
        if (m.round != (*schedule_.pok)[m.from].response) continue;
        Dealer& dealer = dealers_[m.from];
        if (dealer.pok_response.has_value() || m.payload.size() != 24) continue;
        ByteReader r(m.payload);
        crypto::SigmaResponse resp;
        resp.a = r.u64();
        resp.z1 = crypto::Zq{r.u64(), group_->q()};
        resp.z2 = crypto::Zq{r.u64(), group_->q()};
        dealer.pok_response = resp;
      } else if (m.tag == kVssComplainTag) {
        if (m.from >= schedule_.n || m.round != schedule_.complaint_round) continue;
        if (m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        complaints_.file(m.from, r.u64());
      } else if (m.tag == kVssJustifyTag) {
        if (m.from >= schedule_.n || m.round != schedule_.justify_round) continue;
        ShareLedger& dealer = dealers_[m.from].shares;  // dealers justify themselves
        ByteReader r(m.payload);
        const sim::PartyId complainer = r.u64();
        const auto share = crypto::decode_pedersen_share(r.field(), group_->q());
        if (share.x != complainer + 1) continue;
        if (!complaints_.filed(m.from, complainer) || !dealer.verifies(share)) continue;
        complaints_.justify(m.from, complainer);
        dealer.publish(share);
        if (complainer == me_) dealer.set_my_share(share);
      } else if (m.tag == kVssRevealTag) {
        if (m.from >= schedule_.n || m.round != schedule_.reconstruct_round) continue;
        ByteReader r(m.payload);
        const std::uint64_t dealer_id = r.u64();
        if (dealer_id >= schedule_.n) continue;
        const auto share = crypto::decode_pedersen_share(r.field(), group_->q());
        if (share.x != m.from + 1) continue;  // a party reveals only its own share
        dealers_[dealer_id].shares.publish(share);
      }
    } catch (const Error&) {
      // Malformed adversarial message: ignored; the sender's coordinate
      // degrades toward the default 0 on its own.
    }
  }
}

crypto::Zq VssProtocolParty::joint_challenge(sim::Round challenge_round) const {
  crypto::Zq c{0, group_->q()};
  const auto it = challenge_contributions_.find(challenge_round);
  if (it != challenge_contributions_.end()) {
    for (const auto& [from, contribution] : it->second) c += crypto::Zq{contribution, group_->q()};
  }
  const auto mine = my_contributions_.find(challenge_round);
  if (mine != my_contributions_.end()) c += crypto::Zq{mine->second, group_->q()};
  return c;
}

bool VssProtocolParty::dealt(std::size_t d) const {
  const Dealer& dealer = dealers_[d];
  if (!dealer.shares.has_commitments()) return false;
  if (!schedule_.pok.has_value()) return true;
  return dealer.pok_a.has_value() && dealer.pok_response.has_value() &&
         dealer.pok_response->a == *dealer.pok_a &&
         crypto::sigma_verify(*group_, dealer.shares.commitments().front(),
                              joint_challenge((*schedule_.pok)[d].challenge),
                              *dealer.pok_response);
}

void VssProtocolParty::on_round(sim::Round round, const sim::Inbox& inbox,
                                sim::PartyContext& ctx) {
  record(inbox);

  if (round == schedule_.deal_round[me_]) deal(ctx);

  if (schedule_.pok.has_value()) {
    const PokRounds& mine = (*schedule_.pok)[me_];
    if (round == mine.commit && my_deal_.has_value()) {
      my_pok_ = crypto::sigma_commit(*group_, ctx.drbg());
      ByteWriter w = ctx.writer();
      w.u64(my_pok_->a);
      ctx.broadcast(kPokCommitTag, w.take());
      dealers_[me_].pok_a = my_pok_->a;
    }
    // Contribute to every batch's joint challenge (one broadcast per
    // distinct challenge round).
    bool is_challenge_round = false;
    for (const PokRounds& p : *schedule_.pok)
      if (p.challenge == round) is_challenge_round = true;
    if (is_challenge_round && !my_contributions_.contains(round)) {
      const std::uint64_t contribution = ctx.drbg().below(group_->q());
      my_contributions_[round] = contribution;
      ByteWriter w = ctx.writer();
      w.u64(contribution);
      ctx.broadcast(kPokChallengeTag, w.take());
    }
    if (round == mine.response && my_pok_.has_value()) {
      const crypto::Zq c = joint_challenge(mine.challenge);
      const crypto::Zq secret{input_ ? std::uint64_t{1} : std::uint64_t{0}, group_->q()};
      const crypto::SigmaResponse resp =
          crypto::sigma_respond(*my_pok_, c, secret, my_deal_->blinding);
      ByteWriter w = ctx.writer();
      w.u64(resp.a);
      w.u64(resp.z1.value());
      w.u64(resp.z2.value());
      ctx.broadcast(kPokResponseTag, w.take());
      dealers_[me_].pok_response = resp;
    }
  }

  if (round == schedule_.complaint_round) {
    std::uint64_t mask = 0;
    for (std::size_t d = 0; d < schedule_.n; ++d)
      if (d != me_ && !dealers_[d].shares.my_share_verifies()) mask |= std::uint64_t{1} << d;
    // Broadcasts are not self-delivered, so file my own complaints locally
    // too - every party must evaluate the same complaint set.
    complaints_.file(me_, mask);
    ByteWriter w = ctx.writer();
    w.u64(mask);
    ctx.broadcast(kVssComplainTag, w.take());
  }

  if (round == schedule_.justify_round && my_deal_.has_value()) {
    for (sim::PartyId complainer = 0; complainer < schedule_.n; ++complainer) {
      if (!complaints_.filed(me_, complainer)) continue;
      ctx.broadcast(kVssJustifyTag, encode_justify(complainer, my_deal_->shares[complainer]));
      // Mark my own justification locally (no self-delivery of broadcasts).
      complaints_.justify(me_, complainer);
      dealers_[me_].shares.publish(my_deal_->shares[complainer]);
    }
  }

  if (round == schedule_.reconstruct_round) {
    for (std::size_t d = 0; d < schedule_.n; ++d) complaints_.decide(d, dealt(d));
    for (std::size_t d = 0; d < schedule_.n; ++d) {
      const ShareLedger& dealer = dealers_[d].shares;
      if (complaints_.disqualified(d) || !dealer.my_share_verifies()) continue;
      ctx.broadcast(kVssRevealTag, encode_reveal(d, dealer.my_share()));
    }
  }
}

void VssProtocolParty::finish(const sim::Inbox& inbox, sim::PartyContext& /*ctx*/) {
  record(inbox);
  for (std::size_t d = 0; d < schedule_.n; ++d) {
    if (complaints_.disqualified(d)) continue;  // announced 0
    const std::optional<crypto::Zq> secret = dealers_[d].shares.reconstruct(schedule_.threshold);
    result_.set(d, secret && secret->value() == 1);  // unreconstructable or not a bit -> 0
  }
  decided_ = true;
}

BitVec VssProtocolParty::output() const {
  if (!decided_) throw ProtocolError("VssProtocolParty: output before finish");
  return result_;
}

}  // namespace simulcast::protocols
