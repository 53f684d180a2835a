// Exact outputs under attack.  For each VSS protocol (CGMA, Chor-Rabin,
// Gennaro and the Θ-MPC backend of flawed-pi-g-mpc) and each adversary
// that reaches its rejection paths, the test runs a fixed grid of
// executions - n in {4, 5, 7} with 1, 2 and 3 corrupted parties, eight
// seeds each - and hashes every party's output, the adversary output, the
// round count and every traffic counter into one digest.  A change to the
// VSS receiver (protocols/vss_core.h) or to the honest-machine driver
// (PassiveAdversary) that is meant to be value-identical must leave every
// digest as it is.  The goldens and the benchmark digests only see silent
// adversaries, so this is where value identity on adversarial paths is
// checked.
#include <gtest/gtest.h>

#include "fuzz_adversaries.h"
#include "adversary/adversaries.h"
#include "core/registry.h"
#include "crypto/sha256.h"
#include "protocols/cgma.h"
#include "protocols/theta_mpc.h"
#include "sim/network.h"

namespace simulcast::adversary {
namespace {

/// The names are stored inline, not as pointers: gtest prints a parameter
/// without operator<< as its raw bytes, and those bytes become part of the
/// registered test names.  A pointer to a string literal carries the
/// ASLR-randomized load address of the test binary, so the names would
/// change from one build to the next.
struct DigestCase {
  char protocol[16];  ///< "flawed-pi-g-mpc" fills it
  char adversary[8];  ///< passive | fuzz | replay | mangle | parity | snoop
};

struct Golden {
  DigestCase c;
  const char* digest;  ///< first 16 hex digits of the SHA-256 over the grid
};

constexpr Golden kGoldens[] = {
    {{"cgma", "passive"}, "970b4bb7b627685b"},
    {{"cgma", "fuzz"}, "56a97ff4bfd31201"},
    {{"cgma", "replay"}, "24452103fb2c7c36"},
    {{"cgma", "mangle"}, "f30000f89381e6ef"},
    {{"cgma", "snoop"}, "054d58d55c53a916"},
    {{"chor-rabin", "passive"}, "9004b373443bd88c"},
    {{"chor-rabin", "fuzz"}, "8bfc2d4484c9a041"},
    {{"chor-rabin", "replay"}, "c9584dc9d1e8dfd3"},
    {{"chor-rabin", "mangle"}, "24e322ef4d3caef5"},
    {{"gennaro", "passive"}, "85ef8fbfb2c56d1e"},
    {{"gennaro", "fuzz"}, "8519a1b0efadc223"},
    {{"gennaro", "replay"}, "98ca16f823e3273f"},
    {{"gennaro", "mangle"}, "51f9fda535418a25"},
    {{"flawed-pi-g-mpc", "passive"}, "f18964f629389ac9"},
    {{"flawed-pi-g-mpc", "fuzz"}, "c09f9f034fbf8561"},
    {{"flawed-pi-g-mpc", "replay"}, "4b87954d7ab77cd8"},
    {{"flawed-pi-g-mpc", "mangle"}, "f788c87130f6d653"},
    {{"flawed-pi-g-mpc", "parity"}, "2d063b1db44c948f"},
};

std::vector<DigestCase> digest_cases() {
  std::vector<DigestCase> cases;
  for (const Golden& g : kGoldens) cases.push_back(g.c);
  return cases;
}

std::string golden_digest(const DigestCase& c) {
  for (const Golden& g : kGoldens)
    if (std::string_view(g.c.protocol) == c.protocol &&
        std::string_view(g.c.adversary) == c.adversary)
      return g.digest;
  return "";
}

std::unique_ptr<sim::Adversary> make_adversary(const std::string& kind,
                                               const sim::ParallelBroadcastProtocol& proto,
                                               const sim::ProtocolParams& params) {
  if (kind == "passive") return std::make_unique<PassiveAdversary>(proto, params);
  if (kind == "fuzz") return std::make_unique<FuzzAdversary>(protocol_tags(proto.name()));
  if (kind == "replay") return std::make_unique<ReplayAdversary>();
  if (kind == "mangle") return std::make_unique<MangleAdversary>(proto, params);
  if (kind == "parity")
    return std::make_unique<ThetaMpcParityAdversary>(
        dynamic_cast<const protocols::ThetaMpcProtocol&>(proto), params);
  return std::make_unique<ShareSnoopAdversary>(0, protocols::CgmaProtocol::schedule(params.n));
}

std::string grid_digest(const DigestCase& c) {
  const auto proto = core::make_protocol(c.protocol);
  const std::string kind = c.adversary;
  const std::vector<std::vector<sim::PartyId>> corruptions = {{2}, {1, 3}, {1, 4, 6}};
  ByteWriter w;
  for (const auto& corrupted : corruptions) {
    const std::size_t n = corrupted.size() == 1 ? 4 : corrupted.size() == 2 ? 5 : 7;
    if (kind == "parity" && corrupted.size() < 2) continue;  // A* needs two lit parties
    // Each replayer re-sends what the others replayed, so its traffic grows
    // as |B|^rounds: three replayers over Chor-Rabin's 13 rounds take minutes.
    if (kind == "replay" && corrupted.size() > 2) continue;
    sim::ProtocolParams params;
    params.n = n;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const BitVec inputs(n, seed * 0x9E3779B97F4A7C15ull >> 40);
      const auto adv = make_adversary(kind, *proto, params);
      sim::ExecutionConfig config;
      config.seed = seed;
      config.corrupted = corrupted;
      config.private_channels = kind != "snoop";  // the snooper reads public channels
      const sim::ExecutionResult r = sim::run_execution(*proto, params, inputs, *adv, config);
      for (const std::optional<BitVec>& out : r.outputs) w.str(out ? out->to_string() : "-");
      w.bytes(r.adversary_output);
      w.u64(r.rounds);
      for (const auto& [column, name] : sim::kTrafficColumns) w.u64(r.traffic.*column);
    }
  }
  return to_hex(crypto::digest_bytes(crypto::sha256(w.take()))).substr(0, 16);
}

class AttackDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(AttackDigestTest, ExactOutputsUnderAttack) {
  EXPECT_EQ(grid_digest(GetParam()), golden_digest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    VssProtocols, AttackDigestTest, ::testing::ValuesIn(digest_cases()),
    [](const auto& case_info) {
      std::string s = std::string(case_info.param.protocol) + "_" + case_info.param.adversary;
      for (char& ch : s)
        if (ch == '-') ch = '_';
      return s;
    });

}  // namespace
}  // namespace simulcast::adversary
