#include "crypto/hmac.h"

#include <cstring>

#include "base/error.h"

namespace simulcast::crypto {

void HmacSha256::set_key(const std::uint8_t* key, std::size_t len) noexcept {
  std::uint8_t block[kSha256BlockSize] = {};
  Digest hashed;
  if (len > kSha256BlockSize) {
    Sha256 ctx;
    ctx.update(key, len);
    hashed = ctx.finish();
    key = hashed.data();
    len = hashed.size();
  }
  if (len != 0) std::memcpy(block, key, len);  // an empty key may be a null pointer

  for (std::size_t i = 0; i < kSha256BlockSize; ++i)
    block[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
  Sha256 inner;
  inner.update(block, kSha256BlockSize);
  inner_mid_ = inner.midstate();

  for (std::size_t i = 0; i < kSha256BlockSize; ++i)
    block[i] = static_cast<std::uint8_t>(block[i] ^ (0x36 ^ 0x5c));
  Sha256 outer;
  outer.update(block, kSha256BlockSize);
  outer_mid_ = outer.midstate();
}

Digest HmacSha256::finish(Sha256& inner) const noexcept {
  const Digest inner_digest = inner.finish();
  Sha256 outer(outer_mid_, kSha256BlockSize);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest HmacSha256::mac(const std::uint8_t* data, std::size_t len) const noexcept {
  Sha256 inner = begin();
  inner.update(data, len);
  return finish(inner);
}

HmacDrbg::HmacDrbg(const Bytes& seed_material) {
  key_.fill(0x00);
  value_.fill(0x01);
  hmac_.set_key(key_);
  update(seed_material.data(), seed_material.size());
}

HmacDrbg::HmacDrbg(std::uint64_t seed, std::string_view personalization)
    : HmacDrbg([&] {
        ByteWriter w;
        w.u64(seed);
        w.str(personalization);
        return w.take();
      }()) {}

void HmacDrbg::update(const std::uint8_t* material, std::size_t len) {
  // K = HMAC(K, V || sep || material); V = HMAC(K, V), once per separator
  // byte (0x00, then 0x01 when material is present) per SP 800-90A.
  const auto derive = [&](std::uint8_t sep) {
    Sha256 ctx = hmac_.begin();
    ctx.update(value_.data(), value_.size());
    ctx.update(&sep, 1);
    ctx.update(material, len);
    key_ = hmac_.finish(ctx);
    hmac_.set_key(key_);
    value_ = hmac_.mac(value_.data(), value_.size());
  };
  derive(0x00);
  if (len != 0) derive(0x01);
}

void HmacDrbg::generate_into(std::uint8_t* out, std::size_t length) {
  std::size_t produced = 0;
  while (produced < length) {
    value_ = hmac_.mac(value_.data(), value_.size());
    const std::size_t take = std::min(value_.size(), length - produced);
    std::memcpy(out + produced, value_.data(), take);
    produced += take;
  }
  update(nullptr, 0);
}

Bytes HmacDrbg::generate(std::size_t length) {
  Bytes out(length);
  generate_into(out.data(), length);
  return out;
}

std::uint64_t HmacDrbg::next_u64() {
  std::uint8_t b[8];
  generate_into(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t HmacDrbg::below(std::uint64_t bound) {
  if (bound == 0) throw UsageError("HmacDrbg::below: bound == 0");
  // Rejection sampling on the top multiple of bound.
  const std::uint64_t limit = bound * ((~std::uint64_t{0}) / bound);
  for (;;) {
    const std::uint64_t v = next_u64();
    if (v < limit) return v % bound;
  }
}

}  // namespace simulcast::crypto
