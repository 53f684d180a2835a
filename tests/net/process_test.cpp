// Process-isolation contract (net/procs.h, DESIGN.md section 14): the
// process backend — one worker process per honest party under a
// coordinator — must be bit-identical to the in-process and socket
// backends for every observable an execution produces, a SIGKILLed worker
// must be indistinguishable from a sim::FaultPlan crash scheduled at the
// same round, and every way a handshake can go wrong must surface as a
// loud ProtocolError within the stall deadline, leaving no zombie behind.
//
// This binary has a custom main: a re-exec'd worker runs the same
// executable, so worker dispatch (net::maybe_worker_main) must happen
// before gtest ever sees argv, and the protocol resolver must be chained
// first so spawned workers can host the file-local chatter protocol.
#include "net/procs.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "exec/runner.h"
#include "net/transport.h"
#include "net/worker.h"
#include "obs/metrics.h"
#include "sim/network.h"

namespace simulcast::net {
namespace {

constexpr std::uint64_t kMasterSeed = 0x7A05C0DE;

// Same 3-round broadcast+p2p chatter machine as transport_test.cpp, but
// here it must also run inside worker processes: the custom main below
// registers it with the worker protocol resolver under the name "chatter".
class ChatterParty final : public sim::Party {
 public:
  explicit ChatterParty(sim::PartyId id, bool input) : id_(id), acc_(input ? 1 : 0) {}

  void begin(sim::PartyContext& ctx) override {
    n_ = ctx.n();
    heard_.assign(n_, 0);
  }

  void on_round(sim::Round round, const sim::Inbox& inbox,
                sim::PartyContext& ctx) override {
    record(inbox);
    acc_ = static_cast<std::uint8_t>(acc_ + static_cast<std::uint8_t>(round) + 1);
    ctx.broadcast("parity", Bytes{acc_});
    ctx.send((id_ + 1) % n_, "poke", Bytes{acc_, static_cast<std::uint8_t>(round)});
  }

  void finish(const sim::Inbox& inbox, sim::PartyContext&) override { record(inbox); }

  [[nodiscard]] BitVec output() const override {
    BitVec out(n_);
    for (sim::PartyId j = 0; j < n_; ++j) out.set(j, (heard_[j] & 1) != 0);
    return out;
  }

 private:
  void record(const sim::Inbox& inbox) {
    for (const sim::Message& m : inbox)
      if (m.from < n_)
        for (const std::uint8_t b : m.payload) heard_[m.from] ^= b;
  }

  sim::PartyId id_;
  std::size_t n_ = 0;
  std::uint8_t acc_;
  std::vector<std::uint8_t> heard_;
};

class ChatterProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "chatter"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 3; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams&) const override {
    return std::make_unique<ChatterParty>(id, input);
  }
};

/// A protocol no resolver knows: its workers must be rejected at the
/// handshake (exit before the ack), never spawned into a live crew.
class UnresolvableProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "not-in-any-registry"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 2; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams&) const override {
    return std::make_unique<ChatterParty>(id, input);
  }
};

// The chaining resolver installed by main(): file-local protocols first,
// then the core registry (workers of the every-registered-protocol test).
std::unique_ptr<sim::ParallelBroadcastProtocol> resolve_test_protocol(std::string_view name) {
  if (name == "chatter") return std::make_unique<ChatterProtocol>();
  return core::make_protocol(name);
}

void expect_same_traffic(const sim::TrafficStats& a, const sim::TrafficStats& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.point_to_point, b.point_to_point);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.wire_delivered_bytes, b.wire_delivered_bytes);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.crashed, b.crashed);
}

void expect_same_result(const sim::ExecutionResult& a, const sim::ExecutionResult& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.adversary_output, b.adversary_output);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.crashed, b.crashed);
  expect_same_traffic(a.traffic, b.traffic);
}

sim::ExecutionResult run_chatter(TransportKind kind, const sim::FaultPlan& plan,
                                 std::uint64_t seed, const ProcessOptions& process = {},
                                 std::chrono::milliseconds net_timeout = kDefaultNetTimeout) {
  ChatterProtocol proto;
  adversary::AdversaryFactory factory = adversary::silent_factory();
  auto adv = factory();
  sim::ProtocolParams params;
  params.n = 5;
  sim::ExecutionConfig config;
  config.seed = seed;
  config.faults = plan;
  config.transport = kind;
  config.process = process;
  config.net_timeout = net_timeout;
  BitVec inputs(5);
  inputs.set(1, true);
  inputs.set(3, true);
  return sim::run_execution(proto, params, inputs, *adv, config);
}

/// Every handshake-failure test ends with this: a crew that throws must
/// have reaped its children first — no zombie may outlive the error.
void expect_no_zombies() {
  int status = 0;
  errno = 0;
  const pid_t got = ::waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(got, -1) << "an unreaped child (pid " << got << ") survived the failure path";
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------- knob spelling ----

TEST(ProcessTransport, KindNameRoundTrips) {
  EXPECT_EQ(transport_kind_name(TransportKind::kProcess), "process");
  EXPECT_EQ(parse_transport_kind("process"), TransportKind::kProcess);
}

// ------------------------------------------------ handshake codecs ----

TEST(ProcessTransport, HelloCodecRoundTrips) {
  WorkerHello hello;
  hello.n = 5;
  hello.slot = 3;
  hello.k = 2;
  hello.seed = 0xDEADBEEFCAFEF00D;
  hello.rounds = 7;
  hello.input = true;
  hello.spectator = false;
  hello.kill_enabled = true;
  hello.kill_round = 4;
  hello.fault_digest = fault_plan_digest("crash=[2@1]");
  hello.protocol = "gennaro";
  hello.commitments = "hash-sha256";
  Bytes body;
  encode_worker_hello(hello, body);
  const WorkerHello back = decode_worker_hello(body);
  EXPECT_EQ(back.n, hello.n);
  EXPECT_EQ(back.slot, hello.slot);
  EXPECT_EQ(back.k, hello.k);
  EXPECT_EQ(back.seed, hello.seed);
  EXPECT_EQ(back.rounds, hello.rounds);
  EXPECT_EQ(back.input, hello.input);
  EXPECT_EQ(back.spectator, hello.spectator);
  EXPECT_EQ(back.kill_enabled, hello.kill_enabled);
  EXPECT_EQ(back.kill_round, hello.kill_round);
  EXPECT_EQ(back.fault_digest, hello.fault_digest);
  EXPECT_EQ(back.protocol, hello.protocol);
  EXPECT_EQ(back.commitments, hello.commitments);
}

TEST(ProcessTransport, MalformedHelloBodiesAreProtocolErrors) {
  WorkerHello hello;
  hello.n = 4;
  hello.protocol = "chatter";
  Bytes body;
  encode_worker_hello(hello, body);

  // Every strict prefix must be rejected, not silently zero-filled.
  for (std::size_t len = 0; len < body.size(); ++len) {
    const Bytes truncated(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_worker_hello(truncated), ProtocolError) << "prefix " << len;
  }
  // Trailing slack is as suspicious as truncation.
  Bytes padded = body;
  padded.push_back(0);
  EXPECT_THROW((void)decode_worker_hello(padded), ProtocolError);
  // Garbage bytes fail the magic check up front.
  EXPECT_THROW((void)decode_worker_hello(Bytes(body.size(), 0xEE)), ProtocolError);
  // A flipped version byte (offset 4, right after the magic) is rejected
  // even though everything else parses.
  Bytes bumped = body;
  bumped[4] = static_cast<std::uint8_t>(bumped[4] + 1);
  EXPECT_THROW((void)decode_worker_hello(bumped), ProtocolError);
}

TEST(ProcessTransport, MalformedAckBodiesAreProtocolErrors) {
  WorkerAck ack;
  ack.slot = 2;
  ack.fault_digest = 99;
  Bytes body;
  encode_worker_ack(ack, body);
  const WorkerAck back = decode_worker_ack(body);
  EXPECT_EQ(back.slot, 2u);
  EXPECT_EQ(back.fault_digest, 99u);
  for (std::size_t len = 0; len < body.size(); ++len) {
    const Bytes truncated(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_worker_ack(truncated), ProtocolError) << "prefix " << len;
  }
  EXPECT_THROW((void)decode_worker_ack(Bytes(body.size(), 0xEE)), ProtocolError);
}

// ------------------------------------------- three-way equivalence ----

TEST(ProcessTransport, ExecutionIdenticalAcrossAllThreeBackends) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const sim::ExecutionResult inproc = run_chatter(TransportKind::kInProcess, {}, seed);
    const sim::ExecutionResult socket = run_chatter(TransportKind::kSocket, {}, seed);
    const sim::ExecutionResult process = run_chatter(TransportKind::kProcess, {}, seed);
    expect_same_result(inproc, socket);
    expect_same_result(inproc, process);
  }
  expect_no_zombies();
}

TEST(ProcessTransport, ExecutionIdenticalAcrossBackendsUnderFaultPlans) {
  sim::FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.max_delay = 2;
  plan.crashes.push_back({2, 1});
  plan.partitions.push_back({{0, 1}, 1, 2});
  const sim::ExecutionResult inproc = run_chatter(TransportKind::kInProcess, plan, 7);
  const sim::ExecutionResult process = run_chatter(TransportKind::kProcess, plan, 7);
  expect_same_result(inproc, process);
  EXPECT_GT(inproc.traffic.dropped + inproc.traffic.delayed + inproc.traffic.blocked, 0u)
      << "fault plan exercised nothing; the equivalence check is vacuous";
  EXPECT_EQ(inproc.traffic.crashed, 1u);
  expect_no_zombies();
}

TEST(ProcessTransport, EveryRegisteredProtocolIdenticalToInProcess) {
  static const crypto::HashCommitmentScheme scheme;
  for (const std::string& name : core::protocol_names()) {
    const auto proto = core::make_protocol(name);
    sim::ProtocolParams params;
    params.n = 5;
    params.commitments = &scheme;
    BitVec inputs(5);
    for (std::size_t i = 0; i < 5; ++i) inputs.set(i, i % 2 == 0);

    sim::ExecutionResult results[2];
    std::size_t slot = 0;
    for (const TransportKind kind : {TransportKind::kInProcess, TransportKind::kProcess}) {
      adversary::AdversaryFactory factory = adversary::silent_factory();
      auto adv = factory();
      sim::ExecutionConfig config;
      config.seed = kMasterSeed;
      config.transport = kind;
      results[slot++] = sim::run_execution(*proto, params, inputs, *adv, config);
    }
    EXPECT_EQ(results[0].outputs, results[1].outputs) << name;
    EXPECT_EQ(results[0].adversary_output, results[1].adversary_output) << name;
    EXPECT_EQ(results[0].rounds, results[1].rounds) << name;
    expect_same_traffic(results[0].traffic, results[1].traffic);
  }
  expect_no_zombies();
}

TEST(ProcessTransport, RunnerBatchIdenticalAcrossThreadCounts) {
  ChatterProtocol proto;
  static const crypto::HashCommitmentScheme scheme;
  exec::RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = 5;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();

  BitVec input(5);
  input.set(0, true);
  input.set(4, true);

  const exec::BatchResult baseline = exec::Runner(1).run_batch(spec, input, 12, kMasterSeed);
  exec::RunConfig config;
  config.transport = TransportKind::kProcess;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const exec::BatchResult process =
        exec::Runner(threads, config).run_batch(spec, input, 12, kMasterSeed);
    ASSERT_EQ(process.samples.size(), baseline.samples.size()) << "threads " << threads;
    for (std::size_t i = 0; i < baseline.samples.size(); ++i) {
      const exec::Sample& a = baseline.samples[i];
      const exec::Sample& b = process.samples[i];
      EXPECT_EQ(a.inputs, b.inputs) << "rep " << i;
      EXPECT_EQ(a.announced, b.announced) << "rep " << i;
      EXPECT_EQ(a.consistent, b.consistent) << "rep " << i;
      EXPECT_EQ(a.adversary_output, b.adversary_output) << "rep " << i;
      EXPECT_EQ(a.rounds, b.rounds) << "rep " << i;
      expect_same_traffic(a.traffic, b.traffic);
    }
    expect_same_traffic(baseline.report.traffic, process.report.traffic);
  }
  expect_no_zombies();
}

// ---------------------------------------------- crash equivalence ----

/// The headline contract: SIGKILLing a worker the moment round r starts
/// must be bit-for-bit the same execution as a FaultPlan crash scheduled
/// at round r — same outputs, same crash list, same traffic accounting.
TEST(ProcessTransport, KilledWorkerMatchesScheduledCrashBitForBit) {
  struct Case {
    std::size_t party;
    std::uint64_t round;
  };
  for (const Case c : {Case{2, 1}, Case{0, 0}, Case{4, 2}}) {
    sim::FaultPlan plan;
    plan.crashes.push_back({c.party, static_cast<std::size_t>(c.round)});
    const sim::ExecutionResult scheduled =
        run_chatter(TransportKind::kInProcess, plan, 11 + c.round);

    ProcessOptions kill;
    kill.kill_party = c.party;
    kill.kill_round = c.round;
    const sim::ExecutionResult killed =
        run_chatter(TransportKind::kProcess, {}, 11 + c.round, kill);

    expect_same_result(scheduled, killed);
    ASSERT_EQ(killed.crashed, (std::vector<sim::PartyId>{c.party}))
        << "party " << c.party << " round " << c.round;

    // And the plan-driven spelling on the process backend agrees too.
    const sim::ExecutionResult process_plan =
        run_chatter(TransportKind::kProcess, plan, 11 + c.round);
    expect_same_result(scheduled, process_plan);
  }
  expect_no_zombies();
}

TEST(ProcessTransport, RespawnRefillsTheSlotWithoutPerturbingSurvivors) {
  ProcessOptions kill;
  kill.kill_party = 1;
  kill.kill_round = 1;
  const sim::ExecutionResult plain = run_chatter(TransportKind::kProcess, {}, 23, kill);

  ProcessOptions respawn = kill;
  respawn.respawn_crashed = true;
  obs::Counter& respawned = obs::Metrics::global().counter("proc.respawned");
  const std::uint64_t before = respawned.value();
  const sim::ExecutionResult refilled = run_chatter(TransportKind::kProcess, {}, 23, respawn);
  EXPECT_GT(respawned.value(), before) << "no spectator worker was ever respawned";

  // The standby is a spectator: the dead party stays dead and every
  // survivor's view is untouched.
  expect_same_result(plain, refilled);
  ASSERT_EQ(refilled.crashed, (std::vector<sim::PartyId>{1}));
  expect_no_zombies();
}

// ---------------------------------------------- handshake negatives ----

TEST(ProcessTransport, VersionMismatchIsRejectedAtTheHandshake) {
  ProcessOptions options;
  options.tweak = ProcessOptions::HandshakeTweak::kBumpVersion;
  EXPECT_THROW((void)run_chatter(TransportKind::kProcess, {}, 5, options), ProtocolError);
  expect_no_zombies();
}

TEST(ProcessTransport, OutOfRangeSlotIsRejectedAtTheHandshake) {
  ProcessOptions options;
  options.tweak = ProcessOptions::HandshakeTweak::kBadSlot;
  EXPECT_THROW((void)run_chatter(TransportKind::kProcess, {}, 5, options), ProtocolError);
  expect_no_zombies();
}

TEST(ProcessTransport, TruncatedHelloIsRejectedAtTheHandshake) {
  ProcessOptions options;
  options.tweak = ProcessOptions::HandshakeTweak::kTruncatedHello;
  EXPECT_THROW((void)run_chatter(TransportKind::kProcess, {}, 5, options), ProtocolError);
  expect_no_zombies();
}

TEST(ProcessTransport, GarbageHelloIsRejectedAtTheHandshake) {
  ProcessOptions options;
  options.tweak = ProcessOptions::HandshakeTweak::kGarbageHello;
  EXPECT_THROW((void)run_chatter(TransportKind::kProcess, {}, 5, options), ProtocolError);
  expect_no_zombies();
}

TEST(ProcessTransport, WorkerThatNeverHandshakesFailsWithinTheStallDeadline) {
  ProcessOptions options;
  options.tweak = ProcessOptions::HandshakeTweak::kMute;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)run_chatter(TransportKind::kProcess, {}, 5, options, std::chrono::seconds(1)),
      ProtocolError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "a mute worker must trip the 1s stall deadline, not hang";
  expect_no_zombies();
}

// Worker argv is parsed strictly: a malformed descriptor must not become fd
// 0 (stdin as the coordinator channel) and a garbage timeout must not be
// ignored.  Both are rejected with exit code 3 before any descriptor is
// touched, which is why maybe_worker_main can run in-process here.
TEST(ProcessTransport, MalformedWorkerArgvIsRejected) {
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "worker");
    return maybe_worker_main(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  };
  for (const char* fd :
       {"--simulcast-worker-fd=abc", "--simulcast-worker-fd=", "--simulcast-worker-fd=-1",
        "--simulcast-worker-fd=3x", "--simulcast-worker-fd=99999999999"})
    EXPECT_EQ(run({fd}), 3) << fd;
  for (const char* timeout : {"--simulcast-net-timeout=abc", "--simulcast-net-timeout=0",
                              "--simulcast-net-timeout=-5", "--simulcast-net-timeout=5s"})
    EXPECT_EQ(run({"--simulcast-worker-fd=3", timeout}), 3) << timeout;
  EXPECT_EQ(run({"--simulcast-net-timeout=abc"}), -1) << "no fd flag: not a worker invocation";
}

TEST(ProcessTransport, UnknownProtocolIsRejectedAtTheHandshake) {
  // The worker resolves the protocol by name before it acks; a name no
  // resolver knows must be a handshake rejection, never a live crew.
  UnresolvableProtocol proto;
  adversary::AdversaryFactory factory = adversary::silent_factory();
  auto adv = factory();
  sim::ProtocolParams params;
  params.n = 3;
  sim::ExecutionConfig config;
  config.seed = 1;
  config.transport = TransportKind::kProcess;
  BitVec inputs(3);
  EXPECT_THROW((void)sim::run_execution(proto, params, inputs, *adv, config), ProtocolError);
  expect_no_zombies();
}

}  // namespace
}  // namespace simulcast::net

// Worker dispatch must precede gtest: a spawned worker re-execs this very
// binary with --simulcast-worker-fd=N and no gtest flags, and it must be
// able to resolve both the file-local chatter protocol and everything in
// the core registry.
int main(int argc, char** argv) {
  simulcast::sim::set_worker_protocol_resolver(&simulcast::net::resolve_test_protocol);
  if (const int worker_rc = simulcast::net::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
