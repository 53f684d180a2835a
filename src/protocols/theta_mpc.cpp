#include "protocols/theta_mpc.h"

#include <optional>

#include "base/error.h"
#include "protocols/vss_core.h"

namespace simulcast::protocols {

namespace {

using crypto::PedersenShare;
using crypto::PedersenVss;
using crypto::Zq;

struct TwinShares {
  PedersenShare x;
  PedersenShare rho;
};

Bytes encode_twin(const TwinShares& tw) {
  ByteWriter w;
  w.bytes(crypto::encode_pedersen_share(tw.x));
  w.bytes(crypto::encode_pedersen_share(tw.rho));
  return w.take();
}

TwinShares decode_twin(ByteSpan data, std::uint64_t q) {
  ByteReader r(data);
  TwinShares tw;
  tw.x = crypto::decode_pedersen_share(r.field(), q);
  tw.rho = crypto::decode_pedersen_share(r.field(), q);
  if (!r.done()) throw ProtocolError("decode_twin: trailing bytes");
  return tw;
}

class ThetaMpcParty final : public sim::Party {
 public:
  ThetaMpcParty(std::size_t n, bool input, bool lit)
      : n_(n), t_((n - 1) / 2), input_(input), lit_(lit),
        group_(&crypto::SchnorrGroup::standard()) {}

  void begin(sim::PartyContext& ctx) override {
    me_ = ctx.id();
    dealers_.assign(n_, Dealer{});
    complaints_ = ComplaintBook(n_);
    result_ = BitVec(n_);
  }

  void on_round(sim::Round round, const sim::Inbox& inbox,
                sim::PartyContext& ctx) override {
    record(inbox);
    switch (round) {
      case 0: deal(ctx); break;
      case 1: complain(ctx); break;
      case 2: justify(ctx); break;
      case 3: reveal(ctx); break;
      default: break;
    }
  }

  void finish(const sim::Inbox& inbox, sim::PartyContext& /*ctx*/) override {
    record(inbox);
    compute_output();
    decided_ = true;
  }

  [[nodiscard]] BitVec output() const override {
    if (!decided_) throw ProtocolError("ThetaMpcParty: output before finish");
    return result_;
  }

 private:
  enum class Kind : std::uint8_t { kX = 0, kRho = 1 };

  /// Per dealer: its two sharings and its round-0 auxiliary bit.
  struct Dealer {
    ShareLedger x;
    ShareLedger rho;
    std::optional<bool> bit;  ///< first broadcast wins

    ShareLedger& sharing(Kind kind) { return kind == Kind::kX ? x : rho; }
    /// Both of my shares are in and verify.
    [[nodiscard]] bool shares_ok() const {
      return x.my_share_verifies() && rho.my_share_verifies();
    }
  };

  void deal(sim::PartyContext& ctx) {
    // Auxiliary bit in the clear.
    ctx.broadcast(kTmpcBitTag, Bytes{lit_ ? std::uint8_t{1} : std::uint8_t{0}});
    Dealer& self = dealers_[me_];
    self.bit = lit_;

    const Zq x{input_ ? std::uint64_t{1} : std::uint64_t{0}, group_->q()};
    const Zq rho{ctx.drbg().below(2), group_->q()};
    my_deal_x_ = vss_.deal(x, t_, n_, ctx.drbg());
    my_deal_rho_ = vss_.deal(rho, t_, n_, ctx.drbg());

    ByteWriter w = ctx.writer();
    w.bytes(crypto::encode_group_elements(my_deal_x_->commitments));
    w.bytes(crypto::encode_group_elements(my_deal_rho_->commitments));
    ctx.broadcast(kTmpcCommitTag, w.take());
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == me_) continue;
      ctx.send(j, kTmpcShareTag,
               encode_twin({my_deal_x_->shares[j], my_deal_rho_->shares[j]}));
    }
    self.x.set_commitments(my_deal_x_->commitments);
    self.rho.set_commitments(my_deal_rho_->commitments);
    self.x.set_my_share(my_deal_x_->shares[me_]);
    self.rho.set_my_share(my_deal_rho_->shares[me_]);
  }

  void complain(sim::PartyContext& ctx) {
    std::uint64_t mask = 0;
    for (std::size_t d = 0; d < n_; ++d)
      if (d != me_ && !dealers_[d].shares_ok()) mask |= std::uint64_t{1} << d;
    complaints_.file(me_, mask);
    ByteWriter w = ctx.writer();
    w.u64(mask);
    ctx.broadcast(kTmpcComplainTag, w.take());
  }

  void justify(sim::PartyContext& ctx) {
    if (!my_deal_x_.has_value()) return;
    Dealer& self = dealers_[me_];
    for (sim::PartyId complainer = 0; complainer < n_; ++complainer) {
      if (!complaints_.filed(me_, complainer)) continue;
      ByteWriter w = ctx.writer();
      w.u64(complainer);
      w.bytes(encode_twin({my_deal_x_->shares[complainer], my_deal_rho_->shares[complainer]}));
      ctx.broadcast(kTmpcJustifyTag, w.take());
      complaints_.justify(me_, complainer);
      self.x.publish(my_deal_x_->shares[complainer]);
      self.rho.publish(my_deal_rho_->shares[complainer]);
    }
  }

  /// L = lit dealers; the masked branch triggers at |L| == 2.
  [[nodiscard]] std::vector<std::size_t> lit_set() const {
    std::vector<std::size_t> lit;
    for (std::size_t d = 0; d < n_; ++d)
      if (dealers_[d].bit.value_or(false)) lit.push_back(d);
    return lit;
  }

  /// Whether x_d is output as it is: always, except for the two lit
  /// dealers when |L| == 2.
  [[nodiscard]] static bool x_is_output(std::size_t dealer, const std::vector<std::size_t>& lit) {
    return lit.size() != 2 || (dealer != lit[0] && dealer != lit[1]);
  }

  void reveal(sim::PartyContext& ctx) {
    for (std::size_t d = 0; d < n_; ++d)
      complaints_.decide(d, dealers_[d].x.has_commitments() && dealers_[d].rho.has_commitments());
    const auto lit = lit_set();
    for (std::size_t d = 0; d < n_; ++d) {
      const Dealer& dealer = dealers_[d];
      if (complaints_.disqualified(d) || !dealer.shares_ok()) continue;
      const auto send_reveal = [&](Kind kind, const PedersenShare& share) {
        ByteWriter w = ctx.writer();
        w.u64(d);
        w.u8(static_cast<std::uint8_t>(kind));
        w.bytes(crypto::encode_pedersen_share(share));
        ctx.broadcast(kTmpcRevealTag, w.take());
      };
      send_reveal(Kind::kRho, dealer.rho.my_share());
      if (x_is_output(d, lit)) send_reveal(Kind::kX, dealer.x.my_share());
    }
  }

  void record(const sim::Inbox& inbox) {
    for (const sim::Message& m : inbox) {
      try {
        // Channel binding: only the share transfer is point-to-point;
        // everything else must arrive on the broadcast channel or an
        // adversary could equivocate and break consistency.
        if (m.tag != kTmpcShareTag && m.to != sim::kBroadcast) continue;
        if (m.tag == kTmpcBitTag) {
          if (m.from >= n_ || m.round != 0 || m.payload.size() != 1) continue;
          Dealer& d = dealers_[m.from];
          if (!d.bit.has_value()) d.bit = m.payload[0] != 0;
        } else if (m.tag == kTmpcCommitTag) {
          if (m.from >= n_ || m.round != 0) continue;
          Dealer& d = dealers_[m.from];
          if (d.x.has_commitments()) continue;
          ByteReader r(m.payload);
          auto cx = crypto::decode_group_elements(r.field());
          auto cr = crypto::decode_group_elements(r.field());
          if (!vss_.verify_commitments(cx, t_) || !vss_.verify_commitments(cr, t_)) continue;
          d.x.set_commitments(std::move(cx));
          d.rho.set_commitments(std::move(cr));
        } else if (m.tag == kTmpcShareTag) {
          if (m.from >= n_ || m.round != 0 || m.to != me_) continue;
          const TwinShares tw = decode_twin(m.payload, group_->q());
          if (tw.x.x != me_ + 1 || tw.rho.x != me_ + 1) continue;
          dealers_[m.from].x.set_my_share(tw.x);
          dealers_[m.from].rho.set_my_share(tw.rho);
        } else if (m.tag == kTmpcComplainTag) {
          if (m.from >= n_ || m.round != 1 || m.payload.size() != 8) continue;
          ByteReader r(m.payload);
          complaints_.file(m.from, r.u64());
        } else if (m.tag == kTmpcJustifyTag) {
          if (m.from >= n_ || m.round != 2) continue;
          Dealer& d = dealers_[m.from];
          ByteReader r(m.payload);
          const sim::PartyId complainer = r.u64();
          const TwinShares tw = decode_twin(r.field(), group_->q());
          if (tw.x.x != complainer + 1 || tw.rho.x != complainer + 1) continue;
          if (!complaints_.filed(m.from, complainer)) continue;
          if (!d.x.verifies(tw.x) || !d.rho.verifies(tw.rho)) continue;
          complaints_.justify(m.from, complainer);
          d.x.publish(tw.x);
          d.rho.publish(tw.rho);
          if (complainer == me_) {
            d.x.set_my_share(tw.x);
            d.rho.set_my_share(tw.rho);
          }
        } else if (m.tag == kTmpcRevealTag) {
          if (m.from >= n_ || m.round != 3) continue;
          ByteReader r(m.payload);
          const std::uint64_t dealer_id = r.u64();
          const auto kind = static_cast<Kind>(r.u8());
          if (dealer_id >= n_ || (kind != Kind::kX && kind != Kind::kRho)) continue;
          const PedersenShare share = crypto::decode_pedersen_share(r.field(), group_->q());
          if (share.x != m.from + 1) continue;
          dealers_[dealer_id].sharing(kind).publish(share);
        }
      } catch (const Error&) {
        // Malformed adversarial message: ignore.
      }
    }
  }

  void compute_output() {
    // r = parity of the sum of all qualified dealers' rho values; every
    // other unreconstructable value is announced 0.
    Zq rho_sum{0, group_->q()};
    const auto lit = lit_set();
    for (std::size_t d = 0; d < n_; ++d) {
      if (complaints_.disqualified(d)) continue;
      if (const auto rho = dealers_[d].rho.reconstruct(t_)) rho_sum += *rho;
      if (!x_is_output(d, lit)) continue;
      if (const auto x = dealers_[d].x.reconstruct(t_)) result_.set(d, x->value() == 1);
    }
    if (lit.size() == 2) {
      // w_l1 = r, w_l2 = r XOR y with y the XOR of everyone else's output.
      bool y = false;
      for (std::size_t d = 0; d < n_; ++d)
        if (d != lit[0] && d != lit[1]) y = y != result_.get(d);
      const bool r = (rho_sum.value() & 1u) != 0;
      result_.set(lit[0], r);
      result_.set(lit[1], r != y);
    }
  }

  std::size_t n_;
  std::size_t t_;
  bool input_;
  bool lit_;
  const crypto::SchnorrGroup* group_;
  PedersenVss vss_;
  sim::PartyId me_ = 0;
  std::optional<crypto::PedersenDeal> my_deal_x_;
  std::optional<crypto::PedersenDeal> my_deal_rho_;
  std::vector<Dealer> dealers_;
  ComplaintBook complaints_;
  BitVec result_;
  bool decided_ = false;
};

}  // namespace

std::unique_ptr<sim::Party> ThetaMpcProtocol::make_party(
    sim::PartyId /*id*/, bool input, const sim::ProtocolParams& params) const {
  return std::make_unique<ThetaMpcParty>(params.n, input, /*lit=*/false);
}

std::unique_ptr<sim::Party> ThetaMpcProtocol::make_attack_party(
    sim::PartyId /*id*/, bool input, bool lit, const sim::ProtocolParams& params) const {
  return std::make_unique<ThetaMpcParty>(params.n, input, lit);
}

}  // namespace simulcast::protocols
