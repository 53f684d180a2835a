#include "crypto/vss.h"

#include "base/error.h"

namespace simulcast::crypto {

FeldmanDeal FeldmanVss::deal(const Zq& secret, std::size_t threshold, std::size_t n,
                             HmacDrbg& drbg) const {
  if (secret.modulus() != group_->q()) throw UsageError("FeldmanVss::deal: secret not in Zq");
  const Polynomial<Zq> poly = Polynomial<Zq>::random(secret, threshold, drbg);

  FeldmanDeal deal;
  deal.commitments.coefficients.reserve(threshold + 1);
  for (const Zq& coeff : poly.coefficients())
    deal.commitments.coefficients.push_back(group_->exp_g(coeff));

  deal.shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i)
    deal.shares.push_back({i, poly.eval(Zq{i, group_->q()})});
  return deal;
}

bool FeldmanVss::verify_share(const FeldmanCommitments& commitments,
                              const Share<Zq>& share) const {
  if (commitments.coefficients.empty()) return false;
  if (share.y.modulus() != group_->q()) return false;
  return group_->exp_g(share.y) ==
         group_->horner(commitments.coefficients, Zq{share.x, group_->q()});
}

bool FeldmanVss::verify_commitments(const FeldmanCommitments& commitments,
                                    std::size_t threshold) const {
  if (commitments.coefficients.size() != threshold + 1) return false;
  for (std::uint64_t a : commitments.coefficients)
    if (!group_->is_element(a)) return false;
  return true;
}

Zq FeldmanVss::reconstruct(const std::vector<Share<Zq>>& shares) const {
  return shamir_reconstruct(shares);
}

std::uint64_t FeldmanVss::committed_public_value(const FeldmanCommitments& c) const {
  if (c.coefficients.empty()) throw UsageError("committed_public_value: empty commitments");
  return c.coefficients.front();
}

PedersenDeal PedersenVss::deal(const Zq& secret, std::size_t threshold, std::size_t n,
                               HmacDrbg& drbg) const {
  if (secret.modulus() != group_->q()) throw UsageError("PedersenVss::deal: secret not in Zq");
  const Polynomial<Zq> f = Polynomial<Zq>::random(secret, threshold, drbg);
  PedersenDeal deal;
  deal.blinding = Zq::sample(drbg, group_->q());
  const Polynomial<Zq> fb = Polynomial<Zq>::random(deal.blinding, threshold, drbg);

  deal.commitments.reserve(threshold + 1);
  for (std::size_t j = 0; j <= threshold; ++j)
    deal.commitments.push_back(group_->exp_gh(f.coefficients()[j], fb.coefficients()[j]));

  deal.shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const Zq x{i, group_->q()};
    deal.shares.push_back({i, f.eval(x), fb.eval(x)});
  }
  return deal;
}

bool PedersenVss::verify_share(const std::vector<std::uint64_t>& commitments,
                               const PedersenShare& share) const {
  if (commitments.empty()) return false;
  if (share.x == 0) return false;
  if (!share.value.valid() || share.value.modulus() != group_->q()) return false;
  if (!share.blinding.valid() || share.blinding.modulus() != group_->q()) return false;
  return group_->exp_gh(share.value, share.blinding) ==
         group_->horner(commitments, Zq{share.x, group_->q()});
}

bool PedersenVss::verify_commitments(const std::vector<std::uint64_t>& commitments,
                                     std::size_t threshold) const {
  if (commitments.size() != threshold + 1) return false;
  for (std::uint64_t c : commitments)
    if (!group_->is_element(c)) return false;
  return true;
}

Zq PedersenVss::reconstruct(const std::vector<PedersenShare>& shares) const {
  std::vector<Share<Zq>> plain;
  plain.reserve(shares.size());
  for (const PedersenShare& s : shares) plain.push_back({s.x, s.value});
  return shamir_reconstruct(plain);
}

Bytes encode_feldman_commitments(const FeldmanCommitments& c) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(c.coefficients.size()));
  for (std::uint64_t a : c.coefficients) w.u64(a);
  return w.take();
}

FeldmanCommitments decode_feldman_commitments(const Bytes& data) {
  ByteReader r(data);
  const std::uint32_t count = r.u32();
  if (count > 4096) throw ProtocolError("decode_feldman_commitments: oversized");
  FeldmanCommitments c;
  c.coefficients.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) c.coefficients.push_back(r.u64());
  return c;
}

Bytes encode_share(const Share<Zq>& s) {
  ByteWriter w;
  w.u64(s.x);
  w.u64(s.y.value());
  return w.take();
}

Share<Zq> decode_share(const Bytes& data, std::uint64_t q) {
  ByteReader r(data);
  Share<Zq> s;
  s.x = r.u64();
  s.y = Zq{r.u64(), q};
  return s;
}

Bytes encode_group_elements(const std::vector<std::uint64_t>& elements) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(elements.size()));
  for (std::uint64_t e : elements) w.u64(e);
  return w.take();
}

std::vector<std::uint64_t> decode_group_elements(ByteSpan data) {
  ByteReader r(data);
  const std::uint32_t count = r.u32();
  if (count > 4096) throw ProtocolError("decode_group_elements: oversized");
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.u64());
  if (!r.done()) throw ProtocolError("decode_group_elements: trailing bytes");
  return out;
}

Bytes encode_pedersen_share(const PedersenShare& s) {
  ByteWriter w;
  w.u64(s.x);
  w.u64(s.value.value());
  w.u64(s.blinding.value());
  return w.take();
}

PedersenShare decode_pedersen_share(ByteSpan data, std::uint64_t q) {
  ByteReader r(data);
  PedersenShare s;
  s.x = r.u64();
  s.value = Zq{r.u64(), q};
  s.blinding = Zq{r.u64(), q};
  if (!r.done()) throw ProtocolError("decode_pedersen_share: trailing bytes");
  return s;
}

}  // namespace simulcast::crypto
