#include "broadcast/dolev_strong.h"

#include <algorithm>

#include "base/error.h"

namespace simulcast::broadcast {

namespace {

constexpr std::size_t kSignerHeight = 3;  // 8 one-time keys; a session signs <= 2 values

// File-local interned tags so the per-message dispatch below is an integer
// compare, not a string compare.
const sim::Tag kRootTag{"ds-root"};
const sim::Tag kRelayTag{"ds-relay"};

class DolevStrongParty final : public sim::Party {
 public:
  DolevStrongParty(sim::PartyId sender, std::size_t t, bool input)
      : sender_(sender), t_(t), input_(input) {}

  void begin(sim::PartyContext& ctx) override {
    signer_.emplace(ctx.drbg().generate(32), kSignerHeight);
    n_ = ctx.n();
  }

  void on_round(sim::Round round, const sim::Inbox& inbox,
                sim::PartyContext& ctx) override {
    if (round == 0) {
      ctx.broadcast(kRootTag, crypto::digest_bytes(signer_->public_root()));
      return;
    }
    if (round == 1) {
      record_roots(inbox);
      if (ctx.id() == sender_) {
        const crypto::Digest digest = dolev_strong_digest(sender_, input_);
        std::vector<ChainLink> chain;
        chain.push_back({ctx.id(), signer_->sign(digest)});
        extracted_.insert(input_);
        send_to_all(ctx, encode_chain(input_, chain));
      }
      return;
    }
    process_chains(round, inbox, &ctx);
  }

  void finish(const sim::Inbox& inbox, sim::PartyContext& /*ctx*/) override {
    process_chains(t_ + 2, inbox, nullptr);
  }

  [[nodiscard]] BitVec output() const override {
    BitVec b(n_);
    if (extracted_.size() == 1) b.set(sender_, *extracted_.begin());
    return b;  // empty or equivocating extracted set falls back to 0
  }

 private:
  void record_roots(const sim::Inbox& inbox) {
    for (const sim::Message& m : inbox) {
      // The PKI must be consistent: roots are only accepted off the
      // broadcast channel, or an equivocating signer could register
      // different keys with different parties and split their verdicts.
      if (m.to != sim::kBroadcast) continue;
      if (m.tag != kRootTag || m.payload.size() != crypto::kSha256DigestSize) continue;
      if (roots_.contains(m.from)) continue;  // first root wins
      crypto::Digest d{};
      std::copy(m.payload.begin(), m.payload.end(), d.begin());
      roots_[m.from] = d;
    }
  }

  void send_to_all(sim::PartyContext& ctx, const Bytes& payload) {
    for (sim::PartyId id = 0; id < n_; ++id)
      if (id != ctx.id()) ctx.send(id, kRelayTag, payload);
  }

  [[nodiscard]] bool chain_valid(const DecodedChain& dc, std::size_t min_links) const {
    const std::size_t links = dc.chain.size();
    if (links < min_links || links > t_ + 1) return false;
    if (dc.chain.front().signer != sender_) return false;
    std::set<sim::PartyId> signers;
    const crypto::Digest digest = dolev_strong_digest(sender_, dc.bit);
    for (const ChainLink& link : dc.chain) {
      if (!signers.insert(link.signer).second) return false;  // duplicate signer
      const auto root = roots_.find(link.signer);
      if (root == roots_.end()) return false;
      if (!crypto::merkle_verify(root->second, digest, link.signature)) return false;
    }
    return true;
  }

  void process_chains(sim::Round round, const sim::Inbox& inbox,
                      sim::PartyContext* ctx) {
    for (const sim::Message& m : inbox) {
      if (m.tag != kRelayTag) continue;
      const auto dc = decode_chain(m.payload);
      if (!dc.has_value()) continue;
      if (!chain_valid(*dc, round - 1)) continue;
      if (!extracted_.insert(dc->bit).second) continue;  // already extracted
      // Relay with our signature appended, if sending is still possible.
      if (ctx != nullptr && round <= t_ + 1) {
        DecodedChain relay = *dc;
        relay.chain.push_back({ctx->id(), signer_->sign(dolev_strong_digest(sender_, dc->bit))});
        send_to_all(*ctx, encode_chain(relay.bit, relay.chain));
      }
    }
  }

  sim::PartyId sender_;
  std::size_t t_;
  bool input_;
  std::size_t n_ = 0;
  std::optional<crypto::MerkleSigner> signer_;
  std::map<sim::PartyId, crypto::Digest> roots_;
  std::set<bool> extracted_;
};

}  // namespace

crypto::Digest dolev_strong_digest(sim::PartyId sender, bool bit) {
  ByteWriter w;
  w.str("simulcast/dolev-strong/v1");
  w.u64(sender);
  w.u8(bit ? 1 : 0);
  return crypto::sha256(w.data());
}

Bytes encode_chain(bool bit, const std::vector<ChainLink>& chain) {
  ByteWriter w;
  w.u8(bit ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(chain.size()));
  for (const ChainLink& link : chain) {
    w.u64(link.signer);
    w.bytes(crypto::encode_merkle_signature(link.signature));
  }
  return w.take();
}

std::optional<DecodedChain> decode_chain(const Bytes& data) {
  try {
    ByteReader r(data);
    DecodedChain dc;
    const std::uint8_t bit = r.u8();
    if (bit > 1) return std::nullopt;  // one encoding per bit, as encode_chain writes
    dc.bit = bit == 1;
    const std::uint32_t count = r.u32();
    if (count > 256) return std::nullopt;
    dc.chain.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ChainLink link;
      link.signer = r.u64();
      const auto sig = crypto::decode_merkle_signature(r.bytes());
      if (!sig.has_value()) return std::nullopt;
      link.signature = *sig;
      dc.chain.push_back(std::move(link));
    }
    if (!r.done()) return std::nullopt;
    return dc;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::unique_ptr<sim::Party> DolevStrongBroadcast::make_party(
    sim::PartyId id, bool input, const sim::ProtocolParams& params) const {
  (void)id;
  (void)params;
  return std::make_unique<DolevStrongParty>(sender_, t_, input);
}

}  // namespace simulcast::broadcast
