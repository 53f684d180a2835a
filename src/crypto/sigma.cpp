#include "crypto/sigma.h"

namespace simulcast::crypto {

SigmaCommitment sigma_commit(const SchnorrGroup& group, HmacDrbg& drbg) {
  SigmaCommitment c;
  c.u = group.sample_exponent(drbg);
  c.v = group.sample_exponent(drbg);
  c.a = group.exp_gh(c.u, c.v);
  return c;
}

SigmaResponse sigma_respond(const SigmaCommitment& commitment, const Zq& challenge, const Zq& m,
                            const Zq& r) {
  SigmaResponse resp;
  resp.a = commitment.a;
  resp.z1 = commitment.u + challenge * m;
  resp.z2 = commitment.v + challenge * r;
  return resp;
}

bool sigma_verify(const SchnorrGroup& group, std::uint64_t statement_c, const Zq& challenge,
                  const SigmaResponse& response) {
  if (!group.is_element(statement_c) || !group.is_element(response.a)) return false;
  if (!response.z1.valid() || response.z1.modulus() != group.q()) return false;
  if (!response.z2.valid() || response.z2.modulus() != group.q()) return false;
  const std::uint64_t lhs = group.exp_gh(response.z1, response.z2);
  const std::uint64_t rhs = group.mul(response.a, group.exp(statement_c, challenge));
  return lhs == rhs;
}

}  // namespace simulcast::crypto
