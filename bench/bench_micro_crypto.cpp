// Microbenchmarks of the crypto substrate (google-benchmark).
//
// Not a paper experiment - these quantify the building blocks so the
// protocol-level costs in E9 can be decomposed: hashing, commitments,
// Shamir/VSS dealing and verification, sigma proofs, and hash-based
// signatures.
#include <benchmark/benchmark.h>

#include "micro_report.h"

#include "crypto/commitment.h"
#include "crypto/lamport.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"
#include "crypto/sigma.h"
#include "crypto/vss.h"

namespace {

using namespace simulcast;
using namespace simulcast::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacDrbgGenerate(benchmark::State& state) {
  HmacDrbg drbg(1, "bench");
  for (auto _ : state) benchmark::DoNotOptimize(drbg.generate(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_HmacDrbgGenerate)->Arg(32)->Arg(256);

void BM_CommitmentCommit(benchmark::State& state) {
  const auto scheme = make_commitment_scheme(state.range(0) == 0 ? "hash" : "pedersen");
  HmacDrbg drbg(2, "bench");
  const Opening op = scheme->make_opening({0x01}, drbg);
  for (auto _ : state) benchmark::DoNotOptimize(scheme->commit("party:0", op));
}
BENCHMARK(BM_CommitmentCommit)->Arg(0)->Arg(1);

void BM_ShamirShare(benchmark::State& state) {
  HmacDrbg drbg(3, "bench");
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fp61 secret(123456789);
  for (auto _ : state)
    benchmark::DoNotOptimize(shamir_share(secret, (n - 1) / 2, n, drbg));
}
BENCHMARK(BM_ShamirShare)->Arg(4)->Arg(16)->Arg(64);

void BM_ShamirReconstruct(benchmark::State& state) {
  HmacDrbg drbg(4, "bench");
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shares = shamir_share(Fp61(42), (n - 1) / 2, n, drbg);
  const std::vector<Share<Fp61>> subset(shares.begin(),
                                        shares.begin() + static_cast<std::ptrdiff_t>((n - 1) / 2 + 1));
  for (auto _ : state) benchmark::DoNotOptimize(shamir_reconstruct(subset));
}
BENCHMARK(BM_ShamirReconstruct)->Arg(4)->Arg(16)->Arg(64);

void BM_PedersenVssDeal(benchmark::State& state) {
  HmacDrbg drbg(5, "bench");
  PedersenVss vss;
  const auto n = static_cast<std::size_t>(state.range(0));
  const Zq secret(1, vss.group().q());
  for (auto _ : state) benchmark::DoNotOptimize(vss.deal(secret, (n - 1) / 2, n, drbg));
}
BENCHMARK(BM_PedersenVssDeal)->Arg(4)->Arg(16)->Arg(64);

void BM_PedersenVssVerifyShare(benchmark::State& state) {
  HmacDrbg drbg(6, "bench");
  PedersenVss vss;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto deal = vss.deal(Zq(1, vss.group().q()), (n - 1) / 2, n, drbg);
  for (auto _ : state)
    benchmark::DoNotOptimize(vss.verify_share(deal.commitments, deal.shares[0]));
}
BENCHMARK(BM_PedersenVssVerifyShare)->Arg(4)->Arg(16)->Arg(64);

// Subgroup membership of a received commitment, cycling over 1024 elements
// and 1024 non-elements of the standard group.
void BM_GroupIsElement(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::standard();
  HmacDrbg drbg(8, "bench");
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1024; ++i) {
    const std::uint64_t element = group.exp_g(group.sample_exponent(drbg));
    values.push_back(element);
    values.push_back(group.p() - element);  // -1 is a non-residue mod a safe prime
  }
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(group.is_element(values[i++ & 2047]));
}
BENCHMARK(BM_GroupIsElement);

// Variable-base exponentiation with full-width exponents in Zq.
void BM_GroupExp(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::standard();
  HmacDrbg drbg(9, "bench");
  std::vector<std::uint64_t> bases;
  std::vector<Zq> exponents;
  for (int i = 0; i < 1024; ++i) {
    bases.push_back(group.exp_g(group.sample_exponent(drbg)));
    exponents.push_back(group.sample_exponent(drbg));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.exp(bases[i & 1023], exponents[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_GroupExp);

void BM_SigmaProveVerify(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::standard();
  HmacDrbg drbg(7, "bench");
  const Zq m{1, group.q()};
  const Zq r = group.sample_exponent(drbg);
  const std::uint64_t statement = group.exp_gh(m, r);
  for (auto _ : state) {
    const SigmaCommitment commit = sigma_commit(group, drbg);
    const Zq challenge = group.sample_exponent(drbg);
    const SigmaResponse resp = sigma_respond(commit, challenge, m, r);
    benchmark::DoNotOptimize(sigma_verify(group, statement, challenge, resp));
  }
}
BENCHMARK(BM_SigmaProveVerify);

void BM_LamportSign(benchmark::State& state) {
  const LamportKeyPair kp = lamport_keygen(Bytes(32, 1));
  const Digest msg = sha256("bench");
  for (auto _ : state) benchmark::DoNotOptimize(lamport_sign(kp, msg));
}
BENCHMARK(BM_LamportSign);

void BM_LamportVerify(benchmark::State& state) {
  const LamportKeyPair kp = lamport_keygen(Bytes(32, 2));
  const Digest msg = sha256("bench");
  const LamportSignature sig = lamport_sign(kp, msg);
  for (auto _ : state) benchmark::DoNotOptimize(lamport_verify(kp.pk, msg, sig));
}
BENCHMARK(BM_LamportVerify);

void BM_MerkleSignerSetup(benchmark::State& state) {
  for (auto _ : state) {
    MerkleSigner signer(Bytes(32, 3), static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(signer.public_root());
  }
}
BENCHMARK(BM_MerkleSignerSetup)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return simulcast::bench::run_micro(
      argc, argv, "micro/crypto",
      "(methodology) building-block costs decomposing the protocol-level "
      "measurements of E9",
      "google-benchmark over hashing, commitments, Shamir/VSS, sigma proofs "
      "and hash-based signatures");
}
