// Campaign resilience suite: checkpoint/resume determinism, the repetition
// watchdog, retry-with-quarantine and graceful shutdown (exec/checkpoint.h,
// the BatchOptions half of exec/runner.h).
//
// The load-bearing property throughout: by the purity contract an
// interrupted-then-resumed batch must be BIT-IDENTICAL to an uninterrupted
// one — same samples, same canonicalized record — at every thread count,
// tracing on or off, under a non-empty fault plan.  Under the sanitize
// label the checkpoint flusher's publication protocol (release-store of the
// slot status after the sample write, acquire-load before the read) runs
// through TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "base/error.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "exec/checkpoint.h"
#include "exec/runner.h"
#include "obs/log.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace simulcast::exec {
namespace {

RunSpec spec_for(const sim::ParallelBroadcastProtocol& proto, std::size_t n) {
  static const crypto::HashCommitmentScheme scheme;
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();
  return spec;
}

/// Deterministic non-wall-clock comparison of two batch reports: everything
/// the determinism contract pins (timing, throughput and pool width are
/// legitimately different between an interrupted+resumed pair and one run).
void expect_same_canonical_report(const BatchReport& a, const BatchReport& b,
                                  const std::string& context) {
  EXPECT_EQ(a.executions, b.executions) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.quarantine.size(), b.quarantine.size()) << context;
  EXPECT_EQ(a.total_rounds, b.total_rounds) << context;
  EXPECT_EQ(a.traffic, b.traffic) << context;
}

/// Fresh scratch directory per test (gtest's TempDir is per-process).
std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("simulcast_resilience_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// RAII guard: every test leaves the process-wide stop flag and stop-after
/// trigger clean, even on assertion failure.
struct ShutdownGuard {
  ShutdownGuard() { clear_shutdown(); }
  ~ShutdownGuard() { clear_shutdown(); }
};

Sample sample_fixture(std::size_t n, std::uint64_t tweak) {
  Sample s;
  s.inputs = BitVec(n, tweak & 0xF);
  s.announced = BitVec(n, (tweak >> 1) & 0xF);
  s.consistent = (tweak & 1) == 0;
  s.adversary_output = tweak % 3 == 0 ? Bytes{} : Bytes{static_cast<std::uint8_t>(tweak), 0x7F};
  s.rounds = 3 + static_cast<std::size_t>(tweak % 5);
  s.traffic.messages = 10 * tweak;
  s.traffic.point_to_point = 8 * tweak;
  s.traffic.broadcasts = 2 * tweak;
  s.traffic.wire_bytes = 100 + tweak;
  s.traffic.wire_delivered_bytes = 300 + tweak;
  s.traffic.dropped = tweak % 2;
  s.traffic.delayed = tweak % 3;
  s.traffic.blocked = tweak % 4;
  s.traffic.crashed = tweak % 2;
  return s;
}

/// A checkpoint with every kind of field: three slots (one with an empty
/// adversary output) and two quarantine records.
CheckpointData checkpoint_fixture() {
  CheckpointData data;
  data.identity.protocol = "gennaro";
  data.identity.n = 4;
  data.identity.count = 10;
  data.identity.config_hash = 0x0123456789abcdefULL;
  data.identity.fault_hash = 0xfedcba9876543210ULL;
  data.identity.stream_hash = 0x00ff00ff00ff00ffULL;
  data.elapsed_seconds = 0.1 + 0.2;  // a value with no short decimal form
  data.slots.push_back({0, sample_fixture(4, 1)});
  data.slots.push_back({3, sample_fixture(4, 6)});  // empty adversary output
  data.slots.push_back({9, sample_fixture(4, 2)});
  data.quarantined.push_back({5, 0xDEADBEEFULL, "timeout: watchdog deadline expired at round 2"});
  data.quarantined.push_back({7, 42, "deterministic: reason with   spaces"});
  return data;
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, RoundTripsEveryField) {
  const auto dir = scratch_dir("roundtrip");
  const CheckpointData data = checkpoint_fixture();
  const std::string path = (dir / "batch.ckpt").string();
  write_checkpoint(path, data);
  const std::optional<CheckpointData> loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->identity == data.identity);
  EXPECT_EQ(loaded->elapsed_seconds, data.elapsed_seconds);  // bit-exact, not approximate
  ASSERT_EQ(loaded->slots.size(), data.slots.size());
  for (std::size_t i = 0; i < data.slots.size(); ++i) {
    EXPECT_EQ(loaded->slots[i].slot, data.slots[i].slot);
    EXPECT_TRUE(loaded->slots[i].sample == data.slots[i].sample) << "slot " << i;
  }
  ASSERT_EQ(loaded->quarantined.size(), 2u);
  EXPECT_EQ(loaded->quarantined[0].rep, 5u);
  EXPECT_EQ(loaded->quarantined[0].seed, 0xDEADBEEFULL);
  EXPECT_EQ(loaded->quarantined[0].reason, "timeout: watchdog deadline expired at round 2");
  EXPECT_EQ(loaded->quarantined[1].reason, "deterministic: reason with   spaces");
}

// A reason is whatever an exception said, line breaks and leading blanks
// included; the record carries it verbatim.
TEST(Checkpoint, ReasonWithNewlineRoundTrips) {
  const auto dir = scratch_dir("newline");
  CheckpointData data = checkpoint_fixture();
  data.quarantined[0].reason = "deterministic: first line\n second line\nend 0 0\n";
  data.quarantined[1].reason = " leading blank";
  const std::string path = (dir / "batch.ckpt").string();
  write_checkpoint(path, data);
  const std::optional<CheckpointData> loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->quarantined.size(), 2u);
  EXPECT_EQ(loaded->quarantined[0].reason, data.quarantined[0].reason);
  EXPECT_EQ(loaded->quarantined[1].reason, data.quarantined[1].reason);
  EXPECT_EQ(loaded->slots.size(), data.slots.size());
}

TEST(Checkpoint, MissingFileIsFreshCampaign) {
  const auto dir = scratch_dir("missing");
  EXPECT_FALSE(load_checkpoint((dir / "nope.ckpt").string()).has_value());
}

// Every proper prefix of a record (the empty file included), a byte after
// it, a wrong magic and a wrong version are refused, never half-loaded.
TEST(Checkpoint, RejectsCorruptFiles) {
  const auto dir = scratch_dir("corrupt");
  const std::string path = (dir / "batch.ckpt").string();
  write_checkpoint(path, checkpoint_fixture());
  const Bytes record = read_bytes(path);
  ASSERT_GT(record.size(), 100u);

  for (std::size_t len = 0; len < record.size(); ++len) {
    write_bytes(path, Bytes(record.begin(), record.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_THROW((void)load_checkpoint(path), UsageError) << "prefix of " << len << " bytes";
  }
  Bytes padded = record;
  padded.push_back(0);
  write_bytes(path, padded);
  EXPECT_THROW((void)load_checkpoint(path), UsageError);
  // The magic is a length-prefixed string at offset 0, the version a u32
  // right after it.
  Bytes magic = record;
  magic[4] ^= 0x20;
  write_bytes(path, magic);
  EXPECT_THROW((void)load_checkpoint(path), UsageError);
  Bytes version = record;
  version[4 + std::string_view("simulcast-checkpoint").size()] += 1;
  write_bytes(path, version);
  EXPECT_THROW((void)load_checkpoint(path), UsageError);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "not a checkpoint\n";
  EXPECT_THROW((void)load_checkpoint(path), UsageError);
  // The unmodified record still loads.
  write_bytes(path, record);
  EXPECT_TRUE(load_checkpoint(path).has_value());
}

// The sidecar name and the identity line keep their 16-hex rendering.
TEST(Checkpoint, FileNameAndDescriptionArePinned) {
  CampaignIdentity identity;
  identity.protocol = "gennaro";
  identity.n = 4;
  identity.count = 10;
  identity.config_hash = 0x0123456789abcdefULL;
  identity.fault_hash = 7;
  identity.stream_hash = 0x00ff00ff00ff00ffULL;
  EXPECT_EQ(checkpoint_filename(identity), "ckpt_cfcbb7827007c172.ckpt");
  EXPECT_EQ(identity.describe(),
            "protocol=gennaro n=4 count=10 config=0123456789abcdef faults=0000000000000007 "
            "stream=00ff00ff00ff00ff");
}

TEST(Checkpoint, ResolvePathFileVsDirectory) {
  CampaignIdentity identity;
  identity.protocol = "gennaro";
  identity.n = 4;
  identity.count = 8;
  EXPECT_EQ(resolve_checkpoint_path("exact/file.ckpt", identity), "exact/file.ckpt");
  const std::string in_dir = resolve_checkpoint_path("some/dir", identity);
  EXPECT_EQ(in_dir, "some/dir/" + checkpoint_filename(identity));
  // Distinct identities land in distinct sidecars of the same directory.
  CampaignIdentity other = identity;
  other.count = 9;
  EXPECT_NE(checkpoint_filename(identity), checkpoint_filename(other));
}

// The headline contract: interrupt (via the deterministic --stop-after
// trigger) + resume == one uninterrupted run, for EVERY registered
// protocol, at threads {1, 2, 8}, tracing off and on, under a non-empty
// fault plan.
TEST(Resume, InterruptResumeIsIdenticalForAllProtocols) {
  const ShutdownGuard guard;
  const auto dir = scratch_dir("matrix");
  const auto ens = dist::make_uniform(4);

  std::size_t label = 0;
  for (const std::string& name : core::protocol_names()) {
    const auto proto = core::make_protocol(name);
    const RunSpec spec = spec_for(*proto, 4);
    RunConfig config;
    config.faults.drop_probability = 0.1;
    config.faults.max_delay = 1;
    config.faults.crashes.push_back({2, 1});
    // seq-broadcast-ds signs everything; a handful of executions suffices.
    const std::size_t count = name == "seq-broadcast-ds" ? 3 : 8;

    const BatchResult baseline = Runner(1, config).run_batch(spec, *ens, count, 7);
    ASSERT_EQ(baseline.report.completed, count) << name;

    for (const bool tracing : {false, true}) {
      obs::set_trace_enabled(tracing);
      obs::clear_events();
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const std::string ckpt = (dir / ("m" + std::to_string(label++) + ".ckpt")).string();
        BatchOptions options;
        options.checkpoint_path = ckpt;
        options.resume = true;
        options.checkpoint_every = 2;
        const std::string context = name + " threads=" + std::to_string(threads) +
                                    " tracing=" + std::to_string(tracing);

        clear_shutdown();
        set_stop_after(count / 2);
        const BatchResult interrupted =
            Runner(threads, config).set_options(options).run_batch(spec, *ens, count, 7);
        EXPECT_LE(interrupted.report.completed, count) << context;

        clear_shutdown();
        const BatchResult resumed =
            Runner(threads, config).set_options(options).run_batch(spec, *ens, count, 7);
        ASSERT_EQ(resumed.samples.size(), baseline.samples.size()) << context;
        for (std::size_t i = 0; i < count; ++i)
          EXPECT_TRUE(baseline.samples[i] == resumed.samples[i])
              << context << " rep " << i;
        expect_same_canonical_report(baseline.report, resumed.report, context);
        EXPECT_FALSE(std::filesystem::exists(ckpt))
            << context << ": completed batch must remove its checkpoint";
      }
      obs::clear_events();
    }
    obs::set_trace_enabled(false);
  }
}

// A serial interrupted run stops deterministically: exactly stop-after
// slots completed, the rest pending, the checkpoint on disk — and the
// resumed report accounts the union, not just the second attempt.
TEST(Resume, SerialInterruptIsDeterministicAndAccountsUnion) {
  const ShutdownGuard guard;
  const auto dir = scratch_dir("serial");
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const std::string ckpt = (dir / "serial.ckpt").string();
  BatchOptions options;
  options.checkpoint_path = ckpt;
  options.resume = true;

  set_stop_after(5);
  const BatchResult interrupted = Runner(1).set_options(options).run_batch(spec, *ens, 12, 3);
  EXPECT_EQ(interrupted.report.completed, 5u);
  EXPECT_TRUE(interrupted.report.partial);
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  // Abandoned slots still have a well-formed shape for downstream testers.
  for (std::size_t i = 5; i < 12; ++i) {
    EXPECT_EQ(interrupted.samples[i].inputs.size(), 4u) << i;
    EXPECT_EQ(interrupted.samples[i].announced.size(), 4u) << i;
    EXPECT_FALSE(interrupted.samples[i].consistent) << i;
  }

  clear_shutdown();
  const BatchResult resumed = Runner(1).set_options(options).run_batch(spec, *ens, 12, 3);
  EXPECT_EQ(resumed.report.completed, 12u);
  EXPECT_FALSE(resumed.report.partial);
  EXPECT_FALSE(std::filesystem::exists(ckpt));

  const BatchResult baseline = Runner(1).run_batch(spec, *ens, 12, 3);
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_TRUE(baseline.samples[i] == resumed.samples[i]) << i;
  expect_same_canonical_report(baseline.report, resumed.report, "serial resume");
  // The resumed wall clock accounts the interrupted attempt's seconds too.
  EXPECT_GE(resumed.report.wall_seconds, interrupted.report.wall_seconds);
  EXPECT_DOUBLE_EQ(resumed.report.wall_seconds, resumed.report.phases.execution);
}

// Resuming against a different campaign must refuse loudly, not silently
// recompute: restored slots would otherwise be silently wrong.
TEST(Resume, IdentityMismatchRefuses) {
  const ShutdownGuard guard;
  const auto dir = scratch_dir("mismatch");
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const std::string ckpt = (dir / "campaign.ckpt").string();
  BatchOptions options;
  options.checkpoint_path = ckpt;

  set_stop_after(2);
  (void)Runner(1).set_options(options).run_batch(spec, *ens, 8, 3);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  clear_shutdown();

  options.resume = true;
  // Different master seed -> different (input, seed) stream -> refuse.
  EXPECT_THROW((void)Runner(1).set_options(options).run_batch(spec, *ens, 8, 4), UsageError);
  // Different repetition count -> refuse.
  EXPECT_THROW((void)Runner(1).set_options(options).run_batch(spec, *ens, 9, 3), UsageError);
  // Different fault plan -> refuse.
  RunConfig faulty;
  faulty.faults.drop_probability = 0.5;
  EXPECT_THROW((void)Runner(1, faulty).set_options(options).run_batch(spec, *ens, 8, 3),
               UsageError);
  // The true campaign still resumes fine.
  const BatchResult resumed = Runner(1).set_options(options).run_batch(spec, *ens, 8, 3);
  EXPECT_EQ(resumed.report.completed, 8u);
}

TEST(Resume, WithoutCheckpointPathThrows) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  BatchOptions options;
  options.resume = true;
  EXPECT_THROW((void)Runner(1).set_options(options).run_batch(spec, *ens, 4, 3), UsageError);
}

/// Delegates to a real protocol but naps in make_party, so executions
/// overrun any tight watchdog budget while remaining fully deterministic in
/// outputs when the watchdog is generous.
class SlowProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  explicit SlowProtocol(std::chrono::milliseconds nap)
      : inner_(core::make_protocol("gennaro")), nap_(nap) {}
  [[nodiscard]] std::string name() const override { return "slow-gennaro"; }
  [[nodiscard]] std::size_t rounds(std::size_t n) const override { return inner_->rounds(n); }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool honest, const sim::ProtocolParams& params) const override {
    std::this_thread::sleep_for(nap_);
    return inner_->make_party(id, honest, params);
  }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> inner_;
  std::chrono::milliseconds nap_;
};

// A repetition that exceeds --rep-timeout never hangs the batch: it is
// abandoned at the next round boundary and quarantined with its reproducer
// seed; the batch itself is NOT partial (nothing is pending).
TEST(Watchdog, StuckRepetitionIsQuarantinedNotHung) {
  const ShutdownGuard guard;
  const SlowProtocol slow(std::chrono::milliseconds(25));
  RunSpec spec = spec_for(slow, 4);
  BatchOptions options;
  options.rep_timeout = 0.005;  // 5ms budget vs ~100ms of construction naps
  options.quarantine = true;

  const std::vector<std::uint64_t> seeds = {101, 102, 103};
  const std::vector<BitVec> inputs(3, BitVec::from_string("1010"));
  const BatchResult batch = Runner(2).set_options(options).run_batch(spec, inputs, seeds);
  EXPECT_EQ(batch.report.completed, 0u);
  EXPECT_FALSE(batch.report.partial);
  ASSERT_EQ(batch.report.quarantine.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.report.quarantine[i].rep, i);
    EXPECT_EQ(batch.report.quarantine[i].seed, seeds[i]);
    EXPECT_NE(batch.report.quarantine[i].reason.find("timeout"), std::string::npos)
        << batch.report.quarantine[i].reason;
    EXPECT_EQ(batch.samples[i].inputs.size(), 4u);
    EXPECT_EQ(batch.samples[i].announced.size(), 4u);
  }
}

// A generous watchdog must not perturb results: deadline polling only reads
// the clock, never the DRBGs.
TEST(Watchdog, GenerousDeadlineKeepsResultsIdentical) {
  const ShutdownGuard guard;
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const BatchResult baseline = Runner(2).run_batch(spec, *ens, 8, 3);
  BatchOptions options;
  options.rep_timeout = 60.0;
  options.quarantine = true;
  const BatchResult watched = Runner(2).set_options(options).run_batch(spec, *ens, 8, 3);
  EXPECT_EQ(watched.report.completed, 8u);
  EXPECT_TRUE(watched.report.quarantine.empty());
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_TRUE(baseline.samples[i] == watched.samples[i]) << i;
}

/// Delegates to gennaro but fails the first `failures` make_party calls
/// with std::bad_alloc — a transient error in the engine's taxonomy.
class FlakyProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  explicit FlakyProtocol(int failures) : inner_(core::make_protocol("gennaro")) {
    failures_.store(failures);
  }
  [[nodiscard]] std::string name() const override { return "gennaro"; }
  [[nodiscard]] std::size_t rounds(std::size_t n) const override { return inner_->rounds(n); }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool honest, const sim::ProtocolParams& params) const override {
    if (failures_.fetch_sub(1) > 0) throw std::bad_alloc();
    return inner_->make_party(id, honest, params);
  }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> inner_;
  mutable std::atomic<int> failures_{0};
};

// Bounded retry rides out transient errors: a rep whose first attempt hits
// std::bad_alloc retries with the SAME seed and converges to exactly the
// sample a never-failing run produces.
TEST(Retry, TransientFailuresRecoverToIdenticalSamples) {
  const ShutdownGuard guard;
  const auto clean_proto = core::make_protocol("gennaro");
  const RunSpec clean_spec = spec_for(*clean_proto, 4);
  const auto ens = dist::make_uniform(4);
  const BatchResult baseline = Runner(1).run_batch(clean_spec, *ens, 6, 3);

  const FlakyProtocol flaky(4);  // first 4 construction calls fail
  RunSpec spec = spec_for(flaky, 4);
  BatchOptions options;
  options.retries = 5;
  options.quarantine = true;
  const BatchResult recovered = Runner(1).set_options(options).run_batch(spec, *ens, 6, 3);
  EXPECT_EQ(recovered.report.completed, 6u);
  EXPECT_TRUE(recovered.report.quarantine.empty());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(baseline.samples[i] == recovered.samples[i]) << i;
}

// Retry exhaustion quarantines with the transient history in the reason.
TEST(Retry, ExhaustionQuarantinesWithReason) {
  const ShutdownGuard guard;
  const FlakyProtocol hopeless(1 << 20);  // never recovers
  RunSpec spec = spec_for(hopeless, 4);
  BatchOptions options;
  options.retries = 1;
  options.quarantine = true;
  const std::vector<std::uint64_t> seeds = {11, 22};
  const std::vector<BitVec> inputs(2, BitVec::from_string("0101"));
  const BatchResult batch = Runner(1).set_options(options).run_batch(spec, inputs, seeds);
  EXPECT_EQ(batch.report.completed, 0u);
  ASSERT_EQ(batch.report.quarantine.size(), 2u);
  EXPECT_NE(batch.report.quarantine[0].reason.find("persisted after 2 attempts"),
            std::string::npos)
      << batch.report.quarantine[0].reason;
  EXPECT_NE(batch.report.quarantine[0].reason.find("bad_alloc"), std::string::npos);
}

/// A protocol whose machines cannot be built: a deterministic failure.
class BrokenProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "broken"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(sim::PartyId, bool,
                                                       const sim::ProtocolParams&) const override {
    throw ProtocolError("broken protocol: make_party always fails");
  }
};

// Deterministic failures are quarantined immediately (no retry burn) with a
// one-line reproducer: slot index + the exact execution seed.
TEST(Quarantine, DeterministicFailureCarriesReproducerSeed) {
  const ShutdownGuard guard;
  const BrokenProtocol broken;
  RunSpec spec;
  spec.protocol = &broken;
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  BatchOptions options;
  options.retries = 3;  // must NOT be burned on a deterministic failure
  options.quarantine = true;
  const std::vector<std::uint64_t> seeds = {501, 502, 503, 504};
  const std::vector<BitVec> inputs(4, BitVec(4));
  const BatchResult batch = Runner(2).set_options(options).run_batch(spec, inputs, seeds);
  EXPECT_EQ(batch.report.completed, 0u);
  EXPECT_FALSE(batch.report.partial);
  ASSERT_EQ(batch.report.quarantine.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.report.quarantine[i].rep, i);
    EXPECT_EQ(batch.report.quarantine[i].seed, seeds[i]);
    EXPECT_NE(batch.report.quarantine[i].reason.find("deterministic"), std::string::npos);
    EXPECT_NE(batch.report.quarantine[i].reason.find("make_party always fails"),
              std::string::npos);
  }
}

// Without quarantine (the default), the legacy contract holds: the
// exception aborts the batch.
TEST(Quarantine, OffByDefaultPreservesThrowingContract) {
  const ShutdownGuard guard;
  const BrokenProtocol broken;
  RunSpec spec;
  spec.protocol = &broken;
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  const std::vector<std::uint64_t> seeds = {1};
  const std::vector<BitVec> inputs(1, BitVec(4));
  EXPECT_THROW((void)Runner(1).run_batch(spec, inputs, seeds), ProtocolError);
}

/// Delegates to gennaro and raises SIGINT once, from inside the Nth
/// make_party call — a real signal delivered mid-batch.
class RaisingProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  explicit RaisingProtocol(int raise_at_call)
      : inner_(core::make_protocol("gennaro")), countdown_(raise_at_call) {}
  [[nodiscard]] std::string name() const override { return "gennaro"; }
  [[nodiscard]] std::size_t rounds(std::size_t n) const override { return inner_->rounds(n); }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool honest, const sim::ProtocolParams& params) const override {
    if (countdown_.fetch_sub(1) == 1) std::raise(SIGINT);
    return inner_->make_party(id, honest, params);
  }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> inner_;
  mutable std::atomic<int> countdown_;
};

// The full graceful-shutdown story with a REAL signal: SIGINT lands
// mid-repetition, the in-flight repetition finishes (slot boundaries are
// the only safe stop), later slots drain, the checkpoint is flushed, and a
// resumed run completes bit-identically to an uninterrupted one.
TEST(Shutdown, SigintDrainsFlushesCheckpointAndResumes) {
  const ShutdownGuard guard;
  install_signal_handlers();
  const auto dir = scratch_dir("sigint");
  const auto ens = dist::make_uniform(4);
  const std::string ckpt = (dir / "sigint.ckpt").string();

  const auto clean_proto = core::make_protocol("gennaro");
  const RunSpec clean_spec = spec_for(*clean_proto, 4);
  const BatchResult baseline = Runner(1).run_batch(clean_spec, *ens, 10, 3);

  // Raise from the 3rd repetition's first make_party call (serial run:
  // 4 parties per rep, so call 9 is rep 2's first).
  const RaisingProtocol raising(2 * 4 + 1);
  RunSpec spec = spec_for(raising, 4);
  BatchOptions options;
  options.checkpoint_path = ckpt;
  options.resume = true;
  const BatchResult interrupted = Runner(1).set_options(options).run_batch(spec, *ens, 10, 3);
  EXPECT_TRUE(shutdown_requested());
  EXPECT_EQ(interrupted.report.completed, 3u) << "the in-flight rep finishes, later ones drain";
  EXPECT_TRUE(interrupted.report.partial);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  // The handler restored the default disposition for the *next* SIGINT;
  // re-arm ignore so a stray signal cannot kill the test binary.
  clear_shutdown();
  const BatchResult resumed = Runner(1).set_options(options).run_batch(clean_spec, *ens, 10, 3);
  EXPECT_EQ(resumed.report.completed, 10u);
  EXPECT_FALSE(resumed.report.partial);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_TRUE(baseline.samples[i] == resumed.samples[i]) << i;
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

// The bug this pins: the graceful-shutdown drain used to flush only the
// checkpoint, so an interrupted campaign that never reached
// Experiment::finish lost its entire event log and heartbeat stream.  After
// a REAL SIGINT lands mid-batch, run_batch's drain path must flush the log
// and status sinks of its RunConfig: the log file exists and narrates the
// drain, the status stream exists and its last heartbeat is final.
TEST(Shutdown, SigintDrainFlushesTelemetrySinks) {
  const ShutdownGuard guard;
  // The library handler is one-shot per process (it restores SIG_DFL after
  // the first ^C); the sibling test above may already have consumed it, so
  // arm a test-local handler to keep this test order-independent.
  std::signal(SIGINT, [](int) { request_shutdown(); });
  const auto dir = scratch_dir("sigint_sinks");
  const std::string log_path = (dir / "campaign.log").string();
  const std::string status_path = (dir / "status.jsonl").string();
  obs::clear_events();
  obs::clear_status();
  RunConfig config;
  config.log_path = log_path;
  config.status_path = status_path;
  config.status_interval = 0.002;
  config.batch.checkpoint_path = (dir / "sinks.ckpt").string();
  obs::set_log_enabled(true);
  const auto ens = dist::make_uniform(4);

  const RaisingProtocol raising(2 * 4 + 1);  // SIGINT from rep 2's first party
  RunSpec spec = spec_for(raising, 4);
  const BatchResult interrupted = Runner(1, config).run_batch(spec, *ens, 10, 3);
  std::signal(SIGINT, SIG_DFL);
  obs::set_log_enabled(false);
  obs::clear_events();
  obs::clear_status();

  EXPECT_TRUE(interrupted.report.partial);
  ASSERT_TRUE(std::filesystem::exists(log_path))
      << "the drain path must flush the log sink, not only the checkpoint";
  ASSERT_TRUE(std::filesystem::exists(status_path));
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string log_text = slurp(log_path);
  EXPECT_NE(log_text.find("\"event\":\"shutdown-drain\""), std::string::npos) << log_text;
  EXPECT_NE(log_text.find("\"event\":\"batch-begin\""), std::string::npos);
  const std::string status_text = slurp(status_path);
  EXPECT_NE(status_text.find("\"final\":true"), std::string::npos) << status_text;
}

// The resilience knobs land in the parsed RunConfig's BatchOptions, which
// a Runner built from that config snapshots — the path by which the CLI
// knobs reach every driver.
TEST(ResilienceKnobs, ApplyAndSnapshot) {
  std::vector<const char*> args = {"driver",          "--checkpoint=/tmp/c.ckpt", "--resume",
                                   "--rep-timeout=1.5", "--retries=3",            "--stop-after=7"};
  const RunConfig config =
      parse_run_config(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  EXPECT_EQ(config.batch.checkpoint_path, "/tmp/c.ckpt");
  EXPECT_TRUE(config.batch.resume);
  EXPECT_DOUBLE_EQ(config.batch.rep_timeout, 1.5);
  EXPECT_EQ(config.batch.retries, 3);
  EXPECT_TRUE(config.batch.quarantine) << "--retries/--rep-timeout imply quarantine";
  EXPECT_EQ(config.stop_after, 7u);
  EXPECT_EQ(Runner(1, config).options().checkpoint_path, "/tmp/c.ckpt");
  EXPECT_TRUE(Runner(1, RunConfig{}).options().checkpoint_path.empty());
}

}  // namespace
}  // namespace simulcast::exec
