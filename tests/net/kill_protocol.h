// The process backend's `kill -9`, as a protocol wrapper.
//
// "kill:<party>@<round>:<inner>" is the protocol <inner> in every respect
// except one: the machine of party <party> SIGKILLs its own process at the
// top of on_round(<round>), before acting — the point of the round at which
// a sim::FaultPlan crash of that party at that round takes effect.  Run on
// the process backend, the supervisor observes the death as EOF and books
// it as a crash; the crash-equivalence tests compare that execution with
// the in-process scheduler running <inner> under the planned crash.
//
// Workers know their protocol only by name, so a test binary hosts the
// wrapper by chaining resolve_kill into the resolver its main() installs
// (sim::set_worker_protocol_resolver).  Never run it in process: the
// SIGKILL would take the test binary down.
#pragma once

#include <signal.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "base/parse.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace simulcast::net {

class KillParty final : public sim::Party {
 public:
  KillParty(std::unique_ptr<sim::Party> inner, sim::Round round)
      : inner_(std::move(inner)), round_(round) {}

  void begin(sim::PartyContext& ctx) override { inner_->begin(ctx); }
  void on_round(sim::Round round, const sim::Inbox& inbox, sim::PartyContext& ctx) override {
    if (round == round_) (void)::raise(SIGKILL);
    inner_->on_round(round, inbox, ctx);
  }
  void finish(const sim::Inbox& inbox, sim::PartyContext& ctx) override {
    inner_->finish(inbox, ctx);
  }
  [[nodiscard]] BitVec output() const override { return inner_->output(); }

 private:
  std::unique_ptr<sim::Party> inner_;
  sim::Round round_;
};

class KillProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  KillProtocol(std::unique_ptr<sim::ParallelBroadcastProtocol> inner, sim::PartyId party,
               sim::Round round)
      : inner_(std::move(inner)), party_(party), round_(round) {}

  [[nodiscard]] std::string name() const override {
    return "kill:" + std::to_string(party_) + "@" + std::to_string(round_) + ":" +
           inner_->name();
  }
  [[nodiscard]] std::size_t rounds(std::size_t n) const override { return inner_->rounds(n); }
  [[nodiscard]] std::size_t max_corruptions(std::size_t n) const override {
    return inner_->max_corruptions(n);
  }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams& params) const override {
    std::unique_ptr<sim::Party> party = inner_->make_party(id, input, params);
    if (id != party_) return party;
    return std::make_unique<KillParty>(std::move(party), round_);
  }
  [[nodiscard]] std::unique_ptr<sim::TrustedFunctionality> make_functionality(
      const sim::ProtocolParams& params) const override {
    return inner_->make_functionality(params);
  }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> inner_;
  sim::PartyId party_;
  sim::Round round_;
};

/// Resolves a KillProtocol name, with `inner` resolving the wrapped name;
/// nullptr for any name that does not start with "kill:".
inline std::unique_ptr<sim::ParallelBroadcastProtocol> resolve_kill(
    std::string_view name, sim::WorkerProtocolResolver inner) {
  constexpr std::string_view kPrefix = "kill:";
  if (name.rfind(kPrefix, 0) != 0) return nullptr;
  name.remove_prefix(kPrefix.size());
  const std::size_t at = name.find('@');
  const std::size_t colon = name.find(':');
  if (at == std::string_view::npos || colon == std::string_view::npos || colon < at)
    return nullptr;
  const std::optional<std::uint64_t> party = parse_uint(name.substr(0, at));
  const std::optional<std::uint64_t> round = parse_uint(name.substr(at + 1, colon - at - 1));
  std::unique_ptr<sim::ParallelBroadcastProtocol> wrapped = inner(name.substr(colon + 1));
  if (!party || !round || wrapped == nullptr) return nullptr;
  return std::make_unique<KillProtocol>(std::move(wrapped), *party, *round);
}

}  // namespace simulcast::net
