// Process-isolation contract (net/procs.h, DESIGN.md section 14): the
// process backend — one worker process per honest party under a
// coordinator — must be bit-identical to the in-process and socket
// backends for every observable an execution produces, a SIGKILLed worker
// must be indistinguishable from a sim::FaultPlan crash scheduled at the
// same round, and every way a handshake can go wrong must surface as a
// loud rejection within the stall deadline, leaving no zombie behind.
//
// This binary has a custom main: a re-exec'd worker runs the same
// executable, so worker dispatch (sim::maybe_worker_main) must happen
// before gtest ever sees argv, and the protocol resolver must be chained
// first so spawned workers can host the file-local protocols: chatter,
// the kill wrapper (kill_protocol.h) and a name whose resolution never
// returns (the mute worker).
#include "net/procs.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "exec/runner.h"
#include "kill_protocol.h"
#include "net/transport.h"
#include "net/wire.h"
#include "net/worker.h"
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

/// Hosts ChatterParty under `name`: "chatter" is what the test resolver
/// serves, "mute" never resolves (its worker stays silent), and any other
/// name is unknown to every resolver.
class ChatterProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  explicit ChatterProtocol(std::string name = "chatter") : name_(std::move(name)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 3; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams&) const override {
    return std::make_unique<ChatterParty>(id, input);
  }

 private:
  std::string name_;
};

// The chaining resolver installed by main(): file-local protocols first,
// then the core registry (workers of the every-registered-protocol test).
std::unique_ptr<sim::ParallelBroadcastProtocol> resolve_test_protocol(std::string_view name) {
  if (name == "chatter") return std::make_unique<ChatterProtocol>();
  // A worker that connects but never handshakes: it blocks before its ack
  // until the coordinator's stall deadline kills it.
  if (name == "mute")
    for (;;) ::pause();
  if (auto killer = resolve_kill(name, &resolve_test_protocol)) return killer;
  return core::make_protocol(name);
}

void expect_same_result(const sim::ExecutionResult& a, const sim::ExecutionResult& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.adversary_output, b.adversary_output);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.traffic, b.traffic);
}

/// One five-party execution of `proto` under a silent adversary.
sim::ExecutionResult run_five(const sim::ParallelBroadcastProtocol& proto, TransportKind kind,
                              const sim::FaultPlan& plan, std::uint64_t seed,
                              std::chrono::milliseconds net_timeout = kDefaultNetTimeout) {
  adversary::AdversaryFactory factory = adversary::silent_factory();
  auto adv = factory();
  sim::ProtocolParams params;
  params.n = 5;
  sim::ExecutionConfig config;
  config.seed = seed;
  config.faults = plan;
  config.transport = kind;
  config.net_timeout = net_timeout;
  BitVec inputs(5);
  inputs.set(1, true);
  inputs.set(3, true);
  return sim::run_execution(proto, params, inputs, *adv, config);
}

sim::ExecutionResult run_chatter(TransportKind kind, const sim::FaultPlan& plan,
                                 std::uint64_t seed) {
  return run_five(ChatterProtocol(), kind, plan, seed);
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
  hello.fault_digest = fault_plan_digest("crash=[2@1]");
  hello.protocol = "gennaro";
  hello.commitments = "hash-sha256";
  hello.chaos = "loss:0.1";
  Bytes body;
  encode_worker_hello(hello, body);
  const WorkerHello back = decode_worker_hello(body);
  EXPECT_EQ(back.n, hello.n);
  EXPECT_EQ(back.slot, hello.slot);
  EXPECT_EQ(back.k, hello.k);
  EXPECT_EQ(back.seed, hello.seed);
  EXPECT_EQ(back.rounds, hello.rounds);
  EXPECT_EQ(back.input, hello.input);
  EXPECT_EQ(back.fault_digest, hello.fault_digest);
  EXPECT_EQ(back.protocol, hello.protocol);
  EXPECT_EQ(back.commitments, hello.commitments);
  EXPECT_EQ(back.chaos, hello.chaos);
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
    EXPECT_EQ(results[0].traffic, results[1].traffic) << name;
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
    for (std::size_t i = 0; i < baseline.samples.size(); ++i)
      EXPECT_TRUE(baseline.samples[i] == process.samples[i]) << "threads " << threads << " rep " << i;
    EXPECT_EQ(baseline.report.traffic, process.report.traffic) << "threads " << threads;
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
    std::size_t round;
  };
  for (const Case c : {Case{2, 1}, Case{0, 0}, Case{4, 2}}) {
    sim::FaultPlan plan;
    plan.crashes.push_back({c.party, c.round});
    const sim::ExecutionResult scheduled =
        run_chatter(TransportKind::kInProcess, plan, 11 + c.round);

    const KillProtocol killer(std::make_unique<ChatterProtocol>(), c.party, c.round);
    const sim::ExecutionResult killed =
        run_five(killer, TransportKind::kProcess, {}, 11 + c.round);

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

// ---------------------------------------------- handshake negatives ----
//
// A malformed hello is fed, as raw bytes followed by EOF, to the real
// worker entry on one end of a socketpair — in this process, since the
// entry rejects before it builds anything.  Rejection means exit code 3
// and no ack: the coordinator end reads EOF, which ProcSupervisor reports
// as a ProtocolError ("worker rejected the hello", see
// UnknownProtocolIsRejectedAtTheHandshake for that path end to end).

/// A hello a chatter worker would accept.
WorkerHello chatter_hello() {
  WorkerHello hello;
  hello.n = 5;
  hello.slot = 1;
  hello.k = 32;
  hello.seed = 5;
  hello.rounds = 3;
  hello.fault_digest = fault_plan_digest(sim::FaultPlan{}.summary());
  hello.protocol = "chatter";
  return hello;
}

/// `u32 len | u8 kHello | body`, cut after `keep` body bytes.
Bytes hello_record(const Bytes& body, std::size_t keep) {
  Bytes record;
  ByteWriter w(record);
  w.u32(static_cast<std::uint32_t>(body.size() + 1));
  w.u8(static_cast<std::uint8_t>(ProcFrame::kHello));
  w.raw(ByteSpan(body).first(keep));
  return record;
}

struct EntryOutcome {
  int exit_code = -1;
  bool acked = false;
};

/// Writes `bytes` and EOF into a socketpair, runs the worker entry on the
/// other end, and reports its exit code and whether it acked.
EntryOutcome feed_worker_entry(const Bytes& bytes) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  EXPECT_EQ(::send(sv[0], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(sv[0], SHUT_WR);
  const std::string fd_arg = kWorkerFdFlag + std::to_string(sv[1]);
  const std::string timeout_arg = std::string(kWorkerTimeoutFlag) + "1000";
  const char* argv[] = {"worker", fd_arg.c_str(), timeout_arg.c_str()};
  EntryOutcome outcome;
  outcome.exit_code = sim::maybe_worker_main(3, const_cast<char**>(argv));
  ::close(sv[1]);
  WorkerChannel coordinator(sv[0]);
  ProcFrame type{};
  Bytes reply;
  outcome.acked = coordinator.read_frame(type, reply, std::chrono::seconds(1)) ==
                      WorkerChannel::Status::kOk &&
                  type == ProcFrame::kAck;
  ::close(sv[0]);
  return outcome;
}

/// Rejection at the handshake: exit code 3 and no ack.
void expect_rejected(const Bytes& bytes) {
  const EntryOutcome outcome = feed_worker_entry(bytes);
  EXPECT_EQ(outcome.exit_code, 3);
  EXPECT_FALSE(outcome.acked) << "the worker acked a hello it should have rejected";
  expect_no_zombies();
}

// The control for the four cases below: the pristine hello is acked, and
// EOF right after it is a clean shutdown.
TEST(ProcessTransport, WellFormedHelloIsAckedByTheWorkerEntry) {
  Bytes body;
  encode_worker_hello(chatter_hello(), body);
  const EntryOutcome outcome = feed_worker_entry(hello_record(body, body.size()));
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_TRUE(outcome.acked);
  expect_no_zombies();
}

TEST(ProcessTransport, VersionMismatchIsRejectedAtTheHandshake) {
  Bytes body;
  encode_worker_hello(chatter_hello(), body);
  body[4] = static_cast<std::uint8_t>(body[4] + 1);  // the version byte follows the u32 magic
  expect_rejected(hello_record(body, body.size()));
}

TEST(ProcessTransport, OutOfRangeSlotIsRejectedAtTheHandshake) {
  WorkerHello hello = chatter_hello();
  hello.slot = hello.n + 17;
  Bytes body;
  encode_worker_hello(hello, body);
  expect_rejected(hello_record(body, body.size()));
}

TEST(ProcessTransport, TruncatedHelloIsRejectedAtTheHandshake) {
  // Full length prefix, half the body, then EOF: the stream ends mid-record.
  Bytes body;
  encode_worker_hello(chatter_hello(), body);
  expect_rejected(hello_record(body, body.size() / 2));
}

TEST(ProcessTransport, GarbageHelloIsRejectedAtTheHandshake) {
  Bytes body;
  encode_worker_hello(chatter_hello(), body);
  body.assign(body.size(), 0xEE);
  expect_rejected(hello_record(body, body.size()));
}

TEST(ProcessTransport, WorkerThatNeverHandshakesFailsWithinTheStallDeadline) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)run_five(ChatterProtocol("mute"), TransportKind::kProcess, {}, 5,
                              std::chrono::seconds(1)),
               ProtocolError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "a mute worker must trip the 1s stall deadline, not hang";
  expect_no_zombies();
}

// Worker argv is parsed strictly: a malformed descriptor must not become fd
// 0 (stdin as the coordinator channel) and a garbage timeout must not be
// ignored.  Both are rejected with exit code 3 before any descriptor is
// touched, which is why the worker entry can run in-process here.
TEST(ProcessTransport, MalformedWorkerArgvIsRejected) {
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "worker");
    return sim::maybe_worker_main(static_cast<int>(args.size()), const_cast<char**>(args.data()));
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
  EXPECT_THROW((void)run_five(ChatterProtocol("not-in-any-registry"), TransportKind::kProcess,
                              {}, 1),
               ProtocolError);
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
  if (const int worker_rc = simulcast::sim::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
