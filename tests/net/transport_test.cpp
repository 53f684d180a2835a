// Transport-seam contract (net/transport.h): submission-order delivery on
// the in-process backend, byte-level equivalence between the socket and
// in-process backends, and execution/batch invariance — the backend moves
// the bytes, it never changes what an execution computes.
#include "net/transport.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "base/error.h"
#include "crypto/commitment.h"
#include "exec/runner.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::net {
namespace {

constexpr std::uint64_t kMasterSeed = 0x7A05C0DE;

bool messages_equal(const sim::Message& a, const sim::Message& b) {
  return a.from == b.from && a.to == b.to && a.round == b.round && a.tag == b.tag &&
         a.payload == b.payload;
}

// ------------------------------------------------- mailbox contract ----

TEST(Transport, KindNamesRoundTrip) {
  EXPECT_EQ(transport_kind_name(TransportKind::kInProcess), "inproc");
  EXPECT_EQ(transport_kind_name(TransportKind::kSocket), "socket");
  EXPECT_EQ(parse_transport_kind("inproc"), TransportKind::kInProcess);
  EXPECT_EQ(parse_transport_kind("socket"), TransportKind::kSocket);
  EXPECT_THROW((void)parse_transport_kind("tcp"), UsageError);
  EXPECT_THROW((void)parse_transport_kind(""), UsageError);
}

TEST(Transport, InProcessPreservesSubmissionOrder) {
  auto transport = make_transport(TransportKind::kInProcess);
  transport->open(4, 3);
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    sim::Message m{i % 4, (i + 1) % 4, 0, "t" + std::to_string(i), {std::uint8_t(i)}};
    total_bytes += encoded_size(m);
    transport->submit(std::move(m), i % 3);
  }
  for (std::size_t slot = 0; slot < 3; ++slot) {
    const std::vector<sim::Message> got = transport->collect(slot);
    ASSERT_EQ(got.size(), 2u) << "slot " << slot;
    EXPECT_EQ(got[0].tag, "t" + std::to_string(slot));
    EXPECT_EQ(got[1].tag, "t" + std::to_string(slot + 3));
  }
  EXPECT_EQ(transport->stats().frames, 6u);
  EXPECT_EQ(transport->stats().bytes_on_wire, total_bytes);
}

TEST(Transport, SubmitOutOfRangeSlotIsUsageError) {
  for (const TransportKind kind : {TransportKind::kInProcess, TransportKind::kSocket}) {
    auto transport = make_transport(kind);
    transport->open(2, 2);
    EXPECT_THROW(transport->submit(sim::Message{0, 1, 0, "t", {}}, 2), UsageError)
        << transport_kind_name(kind);
  }
}

/// The backbone equivalence: random traffic submitted identically to both
/// backends is collected identically — same messages, same order, per slot.
TEST(Transport, SocketMatchesInProcessOnRandomTraffic) {
  constexpr std::size_t kParties = 4;
  constexpr std::size_t kSlots = 5;
  auto inproc = make_transport(TransportKind::kInProcess);
  auto socket = make_transport(TransportKind::kSocket);
  inproc->open(kParties, kSlots);
  socket->open(kParties, kSlots);

  stats::Rng rng = stats::Rng(kMasterSeed).fork("transport-equiv", 0);
  for (std::size_t i = 0; i < 200; ++i) {
    sim::Message m;
    m.from = rng.below(kParties);
    switch (rng.below(4)) {
      case 0: m.to = sim::kBroadcast; break;
      case 1: m.to = sim::kFunctionality; break;
      default: m.to = rng.below(kParties); break;
    }
    m.round = rng.below(kSlots);
    m.tag = "m" + std::to_string(i);
    const std::size_t payload_len = rng.below(512);
    for (std::size_t b = 0; b < payload_len; ++b)
      m.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
    const std::size_t slot = rng.below(kSlots);
    inproc->submit(m, slot);
    socket->submit(std::move(m), slot);
  }

  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const std::vector<sim::Message> expected = inproc->collect(slot);
    const std::vector<sim::Message> got = socket->collect(slot);
    ASSERT_EQ(got.size(), expected.size()) << "slot " << slot;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_TRUE(messages_equal(got[i], expected[i])) << "slot " << slot << " message " << i;
  }
  EXPECT_EQ(socket->stats().frames, 200u);
  // The socket stream carries a seq/slot prelude per frame on top of the
  // wire encoding, so it moves strictly more bytes than the in-process
  // accounting prices.
  EXPECT_GT(socket->stats().bytes_on_wire, inproc->stats().bytes_on_wire);
  // The wire timers accumulate nanoseconds: 200 encodes and decodes cannot
  // add up to zero, however fast each one is.
  EXPECT_GT(socket->stats().serialize.count(), 0);
  EXPECT_GT(socket->stats().deserialize.count(), 0);
  socket->close();
  socket->close();  // idempotent
}

// ------------------------------------------- execution invariance ----

// A small 3-round protocol with broadcast + p2p traffic: round r, every
// party broadcasts its running parity and sends it p2p to its successor;
// output bit j = parity of everything heard from j.
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

  void finish(const sim::Inbox& inbox, sim::PartyContext&) override {
    record(inbox);
  }

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

sim::ExecutionResult run_chatter(net::TransportKind kind, const sim::FaultPlan& plan,
                                 std::uint64_t seed) {
  ChatterProtocol proto;
  adversary::AdversaryFactory factory = adversary::silent_factory();
  auto adv = factory();
  sim::ProtocolParams params;
  params.n = 5;
  sim::ExecutionConfig config;
  config.seed = seed;
  config.faults = plan;
  config.transport = kind;
  BitVec inputs(5);
  inputs.set(1, true);
  inputs.set(3, true);
  return sim::run_execution(proto, params, inputs, *adv, config);
}

TEST(Transport, ExecutionIdenticalAcrossBackends) {
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const sim::ExecutionResult a = run_chatter(TransportKind::kInProcess, {}, seed);
    const sim::ExecutionResult b = run_chatter(TransportKind::kSocket, {}, seed);
    EXPECT_EQ(a.outputs, b.outputs) << "seed " << seed;
    EXPECT_EQ(a.adversary_output, b.adversary_output) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds) << "seed " << seed;
    EXPECT_EQ(a.traffic, b.traffic);
  }
}

TEST(Transport, ExecutionIdenticalAcrossBackendsUnderFaults) {
  sim::FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.max_delay = 2;
  plan.crashes.push_back({2, 1});
  plan.partitions.push_back({{0, 1}, 1, 2});
  const sim::ExecutionResult a = run_chatter(TransportKind::kInProcess, plan, 7);
  const sim::ExecutionResult b = run_chatter(TransportKind::kSocket, plan, 7);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.adversary_output, b.adversary_output);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_GT(a.traffic.dropped + a.traffic.delayed + a.traffic.blocked, 0u)
      << "fault plan exercised nothing; the equivalence check is vacuous";
}

// ------------------------------------------------ batch invariance ----

TEST(Transport, RunnerBatchIdenticalAcrossBackendsAndThreadCounts) {
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
  config.transport = TransportKind::kSocket;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const exec::BatchResult socket =
        exec::Runner(threads, config).run_batch(spec, input, 12, kMasterSeed);
    ASSERT_EQ(socket.samples.size(), baseline.samples.size()) << "threads " << threads;
    for (std::size_t i = 0; i < baseline.samples.size(); ++i)
      EXPECT_TRUE(baseline.samples[i] == socket.samples[i]) << "threads " << threads << " rep " << i;
    EXPECT_EQ(baseline.report.traffic, socket.report.traffic) << "threads " << threads;
  }
}

/// The count of the registry histogram `name`; 0 before its first record.
std::uint64_t histogram_count(std::string_view name) {
  for (const obs::HistogramSnapshot& h : obs::Metrics::global().snapshot().histograms)
    if (h.name == name) return h.count;
  return 0;
}

// The in-process mailboxes time no encode, decode or collect, so an
// in-process batch must not feed the socket backend's timing metrics: a
// flush histogram of all-zero samples would print percentiles nobody
// measured.
TEST(Transport, InProcessBatchRecordsNoFlushTimings) {
  ChatterProtocol proto;
  static const crypto::HashCommitmentScheme scheme;
  exec::RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = 5;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();

  const std::uint64_t before = histogram_count("net.flush_us_per_execution");
  exec::RunConfig config;
  config.transport = TransportKind::kInProcess;
  const exec::BatchResult batch = exec::Runner(1, config).run_batch(spec, BitVec(5), 8, 3);
  EXPECT_GT(batch.report.traffic.messages, 0u) << "no frame moved; the check is vacuous";
  EXPECT_EQ(histogram_count("net.flush_us_per_execution"), before);
}

/// A socket-kind transport that moves nothing itself: its stats are set by
/// the test, as if one execution had encoded a frame in `serialize` time.
class TimedSocketStub final : public Transport {
 public:
  explicit TimedSocketStub(std::chrono::nanoseconds serialize) {
    stats_.frames = 1;
    stats_.serialize = serialize;
  }
  [[nodiscard]] TransportKind kind() const noexcept override { return TransportKind::kSocket; }
  void open(std::size_t, std::size_t) override {}
  void submit(sim::Message, std::size_t) override {}
  [[nodiscard]] std::vector<sim::Message> collect(std::size_t) override { return {}; }
};

// Socket executions encode in well under a microsecond, so the wire timers
// carry the sub-µs remainder across executions instead of rounding each
// one down: 1000 executions of 999 ns add 999 µs, not 0.
TEST(Transport, WireTimersKeepTheSubMicrosecondRemainder) {
  obs::Counter& serialize_us = obs::Metrics::global().counter("net.serialize_us");
  const TimedSocketStub transport(std::chrono::nanoseconds(999));
  const std::uint64_t before = serialize_us.value();
  for (int i = 0; i < 1000; ++i) record_transport_metrics(transport);
  EXPECT_EQ(serialize_us.value() - before, 999u);
}

// Embedders that never parse a command line (the benchmark harness) pick
// the backend with net::set_default_transport_kind before constructing a
// Runner, whose default config is exec::run_config(): it must report the
// live default, not the transport installed at start-up.
TEST(Transport, RunnerFollowsTheNetDefaultTransport) {
  set_default_transport_kind(TransportKind::kSocket);
  const TransportKind seen = exec::run_config().transport;
  set_default_transport_kind(TransportKind::kInProcess);
  EXPECT_EQ(seen, TransportKind::kSocket);
  EXPECT_EQ(exec::run_config().transport, TransportKind::kInProcess);
}

}  // namespace
}  // namespace simulcast::net
