#include "crypto/commitment.h"

#include <chrono>

#include "base/error.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace simulcast::crypto {

namespace {

constexpr std::size_t kBlindingBytes = 32;

/// Accumulates commit() wall time into the "crypto.commit_us" counter.  The
/// sub-microsecond remainder is carried per thread so short calls are not
/// rounded away; the counter itself is timing, so (unlike every protocol
/// output) its value is not deterministic across runs.
class CommitTimer {
 public:
  CommitTimer() : start_(std::chrono::steady_clock::now()) {}
  ~CommitTimer() {
    static obs::Counter& commit_us = obs::Metrics::global().counter("crypto.commit_us");
    thread_local std::uint64_t ns_remainder = 0;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    ns_remainder += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    if (ns_remainder >= 1000) {
      commit_us.add(ns_remainder / 1000);
      ns_remainder %= 1000;
    }
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

Digest hash_labelled(std::string_view domain, std::string_view label, const Opening& opening) {
  HashWriter w;
  w.str(domain);
  w.str(label);
  w.bytes(opening.message);
  w.bytes(opening.randomness);
  return w.finish();
}

}  // namespace

Opening HashCommitmentScheme::make_opening(const Bytes& message, HmacDrbg& drbg) const {
  return Opening{message, drbg.generate(kBlindingBytes)};
}

Commitment HashCommitmentScheme::commit(std::string_view label, const Opening& opening) const {
  const CommitTimer timer;
  const Digest d = hash_labelled("simulcast/hash-commit/v1", label, opening);
  return Commitment{digest_bytes(d)};
}

bool HashCommitmentScheme::verify(std::string_view label, const Commitment& commitment,
                                  const Opening& opening) const {
  const Commitment expected = commit(label, opening);
  if (expected.value.size() != commitment.value.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expected.value.size(); ++i)
    diff |= static_cast<std::uint8_t>(expected.value[i] ^ commitment.value[i]);
  return diff == 0;
}

PedersenCommitmentScheme::PedersenCommitmentScheme() : group_(&SchnorrGroup::standard()) {}

Zq PedersenCommitmentScheme::message_exponent(std::string_view label, const Bytes& message) const {
  HashWriter w;
  w.str("simulcast/pedersen-msg/v1");
  w.str(label);
  w.bytes(message);
  const Digest d = w.finish();
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | d[static_cast<std::size_t>(i)];
  return Zq{x, group_->q()};
}

Opening PedersenCommitmentScheme::make_opening(const Bytes& message, HmacDrbg& drbg) const {
  const Zq r = group_->sample_exponent(drbg);
  ByteWriter w;
  w.u64(r.value());
  return Opening{message, w.take()};
}

Commitment PedersenCommitmentScheme::commit(std::string_view label,
                                            const Opening& opening) const {
  const CommitTimer timer;
  ByteReader reader(opening.randomness);
  const Zq r{reader.u64(), group_->q()};
  const Zq m = message_exponent(label, opening.message);
  const std::uint64_t c = group_->exp_gh(m, r);
  ByteWriter w;
  w.u64(c);
  return Commitment{w.take()};
}

bool PedersenCommitmentScheme::verify(std::string_view label, const Commitment& commitment,
                                      const Opening& opening) const {
  if (commitment.value.size() != kCommitmentBytes) return false;
  try {
    const Commitment expected = commit(label, opening);
    return expected.value == commitment.value;
  } catch (const Error&) {
    return false;
  }
}

std::unique_ptr<CommitmentScheme> make_commitment_scheme(std::string_view name) {
  // "hash-sha256" is HashCommitmentScheme::name(); accepting it makes the
  // factory a left inverse of name(), which the process-worker handshake
  // relies on to reconstruct the coordinator's scheme.
  if (name == "hash" || name == "hash-sha256") return std::make_unique<HashCommitmentScheme>();
  if (name == "pedersen") return std::make_unique<PedersenCommitmentScheme>();
  throw UsageError("make_commitment_scheme: unknown scheme '" + std::string(name) + "'");
}

}  // namespace simulcast::crypto
