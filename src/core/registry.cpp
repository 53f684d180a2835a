#include "core/registry.h"

#include "base/error.h"
#include "sim/network.h"
#include "protocols/cgma.h"
#include "protocols/chor_rabin.h"
#include "protocols/gennaro.h"
#include "protocols/naive_commit_reveal.h"
#include "protocols/seq_broadcast.h"
#include "protocols/theta.h"
#include "protocols/seq_ds.h"
#include "protocols/theta_mpc.h"

namespace simulcast::core {

namespace {

/// Worker processes of the process transport resolve their protocol by
/// registry name (sim/network.h); installing make_protocol at static-init
/// time means every binary that links the registry can host workers.
/// Test binaries with local protocols override this in main().
const struct RegistryResolverInstaller {
  RegistryResolverInstaller() noexcept { sim::set_worker_protocol_resolver(&make_protocol); }
} g_registry_resolver_installer;

}  // namespace

std::unique_ptr<sim::ParallelBroadcastProtocol> make_protocol(std::string_view name) {
  if (name == "seq-broadcast") return std::make_unique<protocols::SeqBroadcastProtocol>();
  if (name == "cgma") return std::make_unique<protocols::CgmaProtocol>();
  if (name == "chor-rabin") return std::make_unique<protocols::ChorRabinProtocol>();
  if (name == "gennaro") return std::make_unique<protocols::GennaroProtocol>();
  if (name == "naive-commit-reveal")
    return std::make_unique<protocols::NaiveCommitRevealProtocol>();
  if (name == "flawed-pi-g") return std::make_unique<protocols::FlawedPiGProtocol>();
  if (name == "flawed-pi-g-mpc") return std::make_unique<protocols::ThetaMpcProtocol>();
  if (name == "seq-broadcast-ds")
    // Tolerance follows the VSS protocols' t < n/2 so sweeps can reuse one
    // corruption budget; authenticated Dolev-Strong itself allows any t < n.
    return std::make_unique<protocols::SeqDolevStrongProtocol>(2);
  throw UsageError("make_protocol: unknown protocol '" + std::string(name) + "'");
}

std::vector<std::string> protocol_names() {
  return {"seq-broadcast", "cgma",                "chor-rabin",
          "gennaro",       "naive-commit-reveal", "flawed-pi-g",
          "flawed-pi-g-mpc", "seq-broadcast-ds"};
}

}  // namespace simulcast::core
