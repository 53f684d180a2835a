#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "base/error.h"
#include "base/parse.h"
#include "crypto/commitment.h"
#include "net/chaos.h"
#include "net/procs.h"
#include "net/transport.h"
#include "net/wire.h"
#include "net/worker.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pool.h"

namespace simulcast::sim {

namespace {

WorkerProtocolResolver g_worker_protocol_resolver = nullptr;

bool is_corrupted(const std::vector<PartyId>& corrupted, PartyId id) {
  return std::find(corrupted.begin(), corrupted.end(), id) != corrupted.end();
}

/// Per-round registry feeds (bytes-per-round / messages-per-round).  Like
/// tracing, these only observe counters the scheduler already maintains —
/// no seed or sample value is touched (DESIGN.md section 8).  Bytes are
/// wire bytes (net::encoded_size) since the payload-only counters left
/// with schema v6.
void record_round_metrics(std::size_t messages, std::size_t wire_bytes) {
  static obs::Histogram& bytes = obs::Metrics::global().histogram("sim.bytes_per_round");
  static obs::Histogram& msgs = obs::Metrics::global().histogram("sim.messages_per_round");
  bytes.record(wire_bytes);
  msgs.record(messages);
}

/// Payload-pool accounting, flushed once per execution.  The per-execution
/// counts are pure functions of the traffic, so these totals are identical
/// across thread counts and releases for a fixed campaign (the
/// allocation-accounting regression test pins them).
void record_alloc_metrics(const MessagePool::Stats& stats) {
  static obs::Counter& acquired = obs::Metrics::global().counter("sim.alloc.payload_acquired");
  static obs::Counter& reused = obs::Metrics::global().counter("sim.alloc.payload_reused");
  static obs::Counter& released = obs::Metrics::global().counter("sim.alloc.payload_released");
  acquired.add(stats.acquired);
  reused.add(stats.reused);
  released.add(stats.released);
}

/// Fault-accounting registry feeds; recorded once per execution, only when
/// the plan was nonempty (the fault-free path touches no fault metric).
void record_fault_metrics(const TrafficStats& traffic) {
  static obs::Counter& dropped = obs::Metrics::global().counter("sim.dropped_messages");
  static obs::Counter& delayed = obs::Metrics::global().counter("sim.delayed_messages");
  static obs::Counter& blocked = obs::Metrics::global().counter("sim.blocked_deliveries");
  static obs::Counter& crashed = obs::Metrics::global().counter("sim.crashed_parties");
  dropped.add(traffic.dropped);
  delayed.add(traffic.delayed);
  blocked.add(traffic.blocked);
  crashed.add(traffic.crashed);
}

// --- process transport: coordinator-side proxy ---------------------------

/// The scheduler's view of a worker-hosted machine (--transport=process).
/// Every Party entry point becomes one RPC to the worker; the worker's
/// outbox is requeued through the coordinator-side PartyContext, so the
/// scheduler's take_outbox sees exactly what a local machine would have
/// queued, in the same order — the heart of the bit-identity contract.
/// WorkerLost and ProtocolError from the supervisor propagate out of the
/// Party calls, where the scheduler books a crash or a fail-in-place.
class RemoteParty final : public Party {
 public:
  RemoteParty(net::ProcSupervisor& crew, PartyId id, bool input) : crew_(crew), id_(id) {
    crew_.spawn(id, input);
  }
  ~RemoteParty() override { crew_.retire(id_); }

  void begin(PartyContext& ctx) override { replay(crew_.begin(id_), ctx); }

  void on_round(Round round, const Inbox& inbox, PartyContext& ctx) override {
    replay(crew_.round(id_, round, inbox), ctx);
  }

  void finish(const Inbox& inbox, PartyContext& ctx) override {
    (void)ctx;
    output_ = crew_.finish(id_, inbox);
  }

  [[nodiscard]] BitVec output() const override {
    if (!output_.has_value())
      throw ProtocolError("RemoteParty: P" + std::to_string(id_) + " produced no output");
    return *output_;
  }

 private:
  static void replay(std::vector<Message> sent, PartyContext& ctx) {
    for (Message& m : sent) {
      if (m.to == kBroadcast)
        ctx.broadcast(m.tag, std::move(m.payload));
      else
        ctx.send(m.to, m.tag, std::move(m.payload));
    }
  }

  net::ProcSupervisor& crew_;
  PartyId id_;
  std::optional<BitVec> output_;
};

// --- process transport: the worker ---------------------------------------

/// Encodes and sends the machine's drained outbox as one kOut frame.
bool send_outbox(net::WorkerChannel& channel, PartyContext& ctx) {
  ByteWriter w;
  net::write_batch(w, ctx.take_outbox());
  return channel.write_frame(net::ProcFrame::kOut, w.take());
}

/// The worker half of the process transport (net/worker.h): reads the
/// hello and rebuilds this slot's machine from it — same registry
/// protocol, same "party:<id>"-personalized DRBG, same commitment scheme —
/// then acks and serves the coordinator's begin/round/finish RPCs until
/// EOF.  The machine code cannot tell it is running here rather than
/// inside run_execution, which is the whole point.  A hello this worker
/// cannot host (malformed, out of range, unknown protocol or scheme,
/// rounds mismatch, unparsable chaos spec) is rejected by exiting with 3
/// before the ack, which the coordinator turns into a ProtocolError.
int serve_worker(net::WorkerChannel& channel) {
  using Status = net::WorkerChannel::Status;

  net::ProcFrame type{};
  Bytes body;
  if (channel.read_frame(type, body, channel.stall_deadline()) != Status::kOk ||
      type != net::ProcFrame::kHello)
    return 3;
  net::WorkerHello hello;
  std::unique_ptr<ParallelBroadcastProtocol> protocol;
  std::unique_ptr<crypto::CommitmentScheme> scheme;
  ProtocolParams params;
  std::unique_ptr<Party> machine;
  net::ChaosSpec chaos;
  try {
    hello = net::decode_worker_hello(body);
    if (hello.n == 0 || hello.n > kMaxBits || hello.slot >= hello.n) return 3;
    if (g_worker_protocol_resolver != nullptr)
      protocol = g_worker_protocol_resolver(hello.protocol);
    if (protocol == nullptr || protocol->rounds(hello.n) != hello.rounds) return 3;
    params.n = hello.n;
    if (!hello.commitments.empty()) {
      scheme = crypto::make_commitment_scheme(hello.commitments);
      params.commitments = scheme.get();
    }
    machine = protocol->make_party(hello.slot, hello.input, params);
    // The chaos spec travels as its canonical summary ("" = clean wire).
    chaos = net::parse_chaos_spec(hello.chaos);
  } catch (const Error&) {
    return 3;
  }
  crypto::HmacDrbg drbg(hello.seed, "party:" + std::to_string(hello.slot));
  MessagePool pool;
  PartyContext ctx(hello.slot, hello.n, drbg, &pool);

  Bytes ack_body;
  net::encode_worker_ack(hello.slot, ack_body);
  if (!channel.write_frame(net::ProcFrame::kAck, ack_body)) return 0;

  // The handshake rides plain framing on both sides; resilient framing
  // switches on right after the ack, mirroring the coordinator.
  const std::string label = "worker:P" + std::to_string(hello.slot);
  if (chaos.enabled() && chaos.applies_to(hello.slot))
    channel.enable_chaos(chaos, hello.seed, label);
  else
    channel.set_label(label);

  // Fail-in-place, the worker spelling: discard the failing call's queued
  // messages, tell the coordinator, exit cleanly.  The coordinator's
  // fail_party does the same bookkeeping a local ProtocolError gets.
  const auto fail_in_place = [&]() {
    (void)ctx.take_outbox();
    (void)channel.write_frame(net::ProcFrame::kFailed, {});
    // Terminal reply: pump acks/retransmits until the coordinator has it
    // (or the wire proves hopeless) — exiting earlier would strand the
    // kFailed frame in the unacked queue and turn a clean fail-in-place
    // into a spurious worker death.
    (void)channel.drain(channel.stall_deadline());
    return 0;
  };

  std::vector<Message> inbox_storage;
  for (;;) {
    const Status status = channel.read_frame(type, body, channel.stall_deadline());
    if (status == Status::kEof) return 0;      // coordinator shut us down
    if (status == Status::kTimeout) return 5;  // coordinator vanished
    if (status == Status::kBudget) return 5;   // wire too hostile; die quietly
    ByteReader reader(body);
    switch (type) {
      case net::ProcFrame::kBegin: {
        try {
          machine->begin(ctx);
        } catch (const ProtocolError&) {
          return fail_in_place();
        }
        if (!send_outbox(channel, ctx)) return 0;
        break;
      }
      case net::ProcFrame::kRound: {
        const Round round = static_cast<Round>(reader.u64());
        net::read_batch(reader, inbox_storage);
        try {
          machine->on_round(round, Inbox(inbox_storage), ctx);
        } catch (const ProtocolError&) {
          return fail_in_place();
        }
        if (!send_outbox(channel, ctx)) return 0;
        break;
      }
      case net::ProcFrame::kFinish: {
        net::read_batch(reader, inbox_storage);
        try {
          machine->finish(Inbox(inbox_storage), ctx);
        } catch (const ProtocolError&) {
          return fail_in_place();
        }
        ByteWriter w;
        try {
          const BitVec out = machine->output();
          w.u8(1);
          w.u32(static_cast<std::uint32_t>(out.size()));
          w.u64(out.packed());
        } catch (const Error&) {
          w.u8(0);
          w.u32(0);
          w.u64(0);
        }
        (void)channel.write_frame(net::ProcFrame::kOutput, w.take());
        (void)channel.drain(channel.stall_deadline());  // terminal reply, see fail_in_place
        return 0;
      }
      default:
        return 6;  // protocol confusion; EOF tells the coordinator enough
    }
  }
}

}  // namespace

void set_worker_protocol_resolver(WorkerProtocolResolver resolver) noexcept {
  g_worker_protocol_resolver = resolver;
}

int maybe_worker_main(int argc, char** argv) {
  // Strict whole-value parse: "--simulcast-worker-fd=abc" must not become
  // fd 0 (stdin as the coordinator channel), nor a garbage timeout be
  // silently ignored.
  bool worker = false;
  bool malformed = false;
  std::uint64_t fd = 0;
  std::uint64_t timeout_ms = static_cast<std::uint64_t>(net::kDefaultNetTimeout.count());
  const auto take = [&](std::string_view text, std::uint64_t& out, std::uint64_t min,
                        std::uint64_t max) {
    const std::optional<std::uint64_t> value = parse_uint(text);
    malformed = malformed || !value || *value < min || *value > max;
    if (value) out = *value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view fd_flag = net::kWorkerFdFlag;
    const std::string_view timeout_flag = net::kWorkerTimeoutFlag;
    if (arg.rfind(fd_flag, 0) == 0) {
      worker = true;
      take(arg.substr(fd_flag.size()), fd, 0, std::numeric_limits<int>::max());
    } else if (arg.rfind(timeout_flag, 0) == 0) {
      take(arg.substr(timeout_flag.size()), timeout_ms, 1,
           std::numeric_limits<std::int64_t>::max());
    }
  }
  if (!worker) return -1;  // not a worker invocation
  if (malformed) return 3;

  try {
    net::WorkerChannel channel(static_cast<int>(fd),
                               std::chrono::milliseconds(static_cast<std::int64_t>(timeout_ms)));
    return serve_worker(channel);
  } catch (const ProtocolError&) {
    return 3;
  } catch (...) {
    return 4;
  }
}

void PartyContext::send(PartyId to, Tag tag, Bytes payload) {
  if (to != kFunctionality && to >= n_) throw UsageError("PartyContext::send: bad destination");
  outbox_.push_back(Message{id_, to, 0, tag, std::move(payload)});
}

void PartyContext::broadcast(Tag tag, Bytes payload) {
  outbox_.push_back(Message{id_, kBroadcast, 0, tag, std::move(payload)});
}

void AdversarySender::check_from(PartyId from) const {
  if (std::find(corrupted_.begin(), corrupted_.end(), from) == corrupted_.end())
    throw UsageError("AdversarySender: 'from' is not a corrupted party");
}

void AdversarySender::send(PartyId from, PartyId to, Tag tag, Bytes payload) {
  check_from(from);
  outbox_.push_back(Message{from, to, 0, tag, std::move(payload)});
}

void AdversarySender::broadcast(PartyId from, Tag tag, Bytes payload) {
  check_from(from);
  outbox_.push_back(Message{from, kBroadcast, 0, tag, std::move(payload)});
}

void FunctionalitySender::send(PartyId to, Tag tag, Bytes payload) {
  outbox_.push_back(Message{kFunctionality, to, 0, tag, std::move(payload)});
}

bool ExecutionResult::honest_outputs_consistent(const std::vector<PartyId>& corrupted) const {
  const BitVec* first = nullptr;
  for (PartyId id = 0; id < outputs.size(); ++id) {
    if (is_corrupted(corrupted, id)) continue;
    if (!outputs[id].has_value()) return false;
    if (first == nullptr)
      first = &*outputs[id];
    else if (*outputs[id] != *first)
      return false;
  }
  return first != nullptr;
}

ExecutionResult run_execution(const ParallelBroadcastProtocol& protocol,
                              const ProtocolParams& params, const BitVec& inputs,
                              Adversary& adversary, const ExecutionConfig& config) {
  const std::size_t n = params.n;
  if (n == 0 || n > kMaxBits) throw UsageError("run_execution: bad party count");
  if (inputs.size() != n) throw UsageError("run_execution: input width != n");
  std::vector<PartyId> corrupted = config.corrupted;
  std::sort(corrupted.begin(), corrupted.end());
  if (std::adjacent_find(corrupted.begin(), corrupted.end()) != corrupted.end())
    throw UsageError("run_execution: duplicate corrupted id");
  for (PartyId id : corrupted)
    if (id >= n) throw UsageError("run_execution: corrupted id out of range");
  if (corrupted.size() > protocol.max_corruptions(n))
    throw UsageError("run_execution: protocol does not tolerate this many corruptions");
  const FaultPlan& plan = config.faults;
  plan.validate(n);

  // Derived randomness streams.
  std::vector<crypto::HmacDrbg> party_drbgs;
  party_drbgs.reserve(n);
  for (PartyId id = 0; id < n; ++id)
    party_drbgs.emplace_back(config.seed, "party:" + std::to_string(id));
  crypto::HmacDrbg adversary_drbg(config.seed, "adversary");
  crypto::HmacDrbg functionality_drbg(config.seed, "functionality");

  const std::size_t total_rounds = protocol.rounds(n);

  // Process mode hosts every honest machine in its own worker process
  // under a per-execution supervisor (net/procs.h).  The crew is declared
  // before the machines because RemoteParty destructors retire their
  // workers through it.
  std::unique_ptr<net::ProcSupervisor> crew;
  if (config.transport == net::TransportKind::kProcess) {
    net::WorkerHello hello;
    hello.n = n;
    hello.seed = config.seed;
    hello.rounds = total_rounds;
    hello.protocol = protocol.name();
    if (params.commitments != nullptr) hello.commitments = params.commitments->name();
    hello.chaos = config.chaos.summary();  // "" for a clean wire
    crew = std::make_unique<net::ProcSupervisor>(config.net_timeout, std::move(hello));
  }

  // Machines (honest parties only).  All payload buffers of the execution
  // cycle through one single-threaded pool: parties acquire via
  // PartyContext::writer(), the scheduler releases each round's consumed
  // deliveries back (sim/pool.h).
  MessagePool payload_pool;
  std::vector<std::unique_ptr<Party>> machines(n);
  std::vector<PartyContext> contexts;
  contexts.reserve(n);
  for (PartyId id = 0; id < n; ++id) {
    contexts.emplace_back(id, n, party_drbgs[id], &payload_pool);
    if (is_corrupted(corrupted, id)) continue;
    if (crew != nullptr)
      machines[id] = std::make_unique<RemoteParty>(*crew, id, inputs.get(id));
    else
      machines[id] = protocol.make_party(id, inputs.get(id), params);
  }
  std::unique_ptr<TrustedFunctionality> functionality = protocol.make_functionality(params);

  // Adversary setup.
  {
    CorruptionInfo info;
    info.corrupted = corrupted;
    info.corrupted_inputs = BitVec(corrupted.size());
    for (std::size_t j = 0; j < corrupted.size(); ++j)
      info.corrupted_inputs.set(j, inputs.get(corrupted[j]));
    info.auxiliary_input = config.auxiliary_input;
    info.n = n;
    adversary.setup(info, adversary_drbg);
  }

  ExecutionResult result;
  result.rounds = total_rounds;
  if (config.record_trace) result.trace.resize(total_rounds + 1);

  // The fault DRBG exists only when a fault needs randomness; the empty
  // plan instantiates nothing and draws nothing (byte-identity contract).
  std::optional<crypto::HmacDrbg> fault_drbg;
  if (plan.drop_probability > 0.0 || plan.max_delay > 0)
    fault_drbg.emplace(config.seed, "faults");
  // Bernoulli(drop_probability) over a 53-bit uniform draw: exact at the
  // endpoints (p = 0 never drops, p = 1 always does).
  constexpr std::uint64_t kDropScale = std::uint64_t{1} << 53;
  const std::uint64_t drop_threshold =
      static_cast<std::uint64_t>(plan.drop_probability * static_cast<double>(kDropScale));

  // First crash round per party; crashes of corrupted parties are no-ops
  // (the adversary, not a machine, acts for them).
  constexpr Round kNoCrash = std::numeric_limits<Round>::max();
  std::vector<Round> crash_at(n, kNoCrash);
  for (const CrashFault& c : plan.crashes)
    if (!is_corrupted(corrupted, c.party)) crash_at[c.party] = std::min(crash_at[c.party], c.round);

  // One crash bookkeeping path for both ways a party can die: a scheduled
  // FaultPlan crash (apply_crashes below) and a worker death observed by
  // the process supervisor (net::WorkerLost) — identical accounting is
  // what makes a killed worker indistinguishable from a planned crash.
  // Destroying a RemoteParty machine SIGKILLs and reaps its worker.
  const auto crash_party = [&](PartyId id, Round round) {
    machines[id].reset();
    result.crashed.push_back(id);
    ++result.traffic.crashed;
    if (obs::trace_enabled())
      obs::trace_instant("party-crash", {{"party", id}, {"round", round}});
    if (obs::log_enabled())
      obs::log_event(obs::LogLevel::kWarn, "party-crash", {{"party", id}, {"round", round}});
  };

  const auto apply_crashes = [&](Round round) {
    if (plan.crashes.empty()) return;
    for (PartyId id = 0; id < n; ++id) {
      if (machines[id] == nullptr || crash_at[id] > round) continue;
      crash_party(id, round);
    }
  };

  /// A party that threw ProtocolError mid-round fails in place: it stops
  /// sending (queued messages of the failing round are discarded) and its
  /// output becomes nullopt; the execution carries on.
  const auto fail_party = [&](PartyId id) {
    (void)contexts[id].take_outbox();
    machines[id].reset();
  };

  for (PartyId id = 0; id < n; ++id) {
    if (machines[id] == nullptr) continue;
    try {
      machines[id]->begin(contexts[id]);
    } catch (const ProtocolError&) {
      fail_party(id);
    } catch (const net::WorkerLost&) {
      crash_party(id, 0);
    }
  }

  const auto link_blocked = [&](PartyId from, PartyId to, Round at) {
    for (const Partition& p : plan.partitions) {
      if (at < p.from || at >= p.until) continue;
      const bool from_inside =
          std::find(p.side.begin(), p.side.end(), from) != p.side.end();
      const bool to_inside = std::find(p.side.begin(), p.side.end(), to) != p.side.end();
      if (from_inside != to_inside) return true;
    }
    return false;
  };

  // The transport owns the messages between rounds: slot r holds traffic
  // awaiting delivery at the start of round r (slot total_rounds is the
  // final delivery into Party::finish).  Without faults every message sent
  // in round r is submitted to slot r + 1, exactly the old pending-vector
  // hand-off — the scheduler decides what is delivered when (faults,
  // partitions), the transport decides how the bytes move.
  std::unique_ptr<net::Transport> transport =
      net::make_transport(config.transport, config.net_timeout, config.chaos, config.seed);
  transport->open(total_rounds + 1);

  // Routes one round's outgoing traffic, applying drops and delays.
  // Functionality traffic models an ideal subprotocol and is exempt.
  const auto route = [&](std::vector<Message>&& sent, Round round) {
    for (Message& m : sent) {
      std::size_t slot = round + 1;
      const bool exempt = m.to == kFunctionality || m.from == kFunctionality;
      if (!exempt) {
        if (drop_threshold > 0 && fault_drbg->below(kDropScale) < drop_threshold) {
          ++result.traffic.dropped;
          continue;
        }
        if (plan.max_delay > 0) {
          const std::size_t delay = fault_drbg->below(plan.max_delay + 1);
          if (delay > 0) ++result.traffic.delayed;
          slot += delay;
          if (slot > total_rounds) {
            // Delayed past the final delivery: the message is lost.
            ++result.traffic.dropped;
            continue;
          }
        }
      }
      transport->submit(std::move(m), slot);
    }
  };

  // Per-recipient delivery buckets, reused across rounds.  One pass over
  // the arriving pool builds every live machine's inbox (plus the
  // functionality's) as pointer views — a broadcast fans out to n-1
  // recipients with zero payload copies — preserving exactly the per-
  // recipient ordering the old per-party scan produced: pool order, direct
  // and broadcast messages interleaved.  Blocked deliveries are counted
  // only for live recipients, as before (corrupted recipients are handled
  // by the adversary-view pass below).
  std::vector<Inbox> inboxes(n);
  Inbox functionality_inbox;
  const auto build_inboxes = [&](const std::vector<Message>& arriving, Round at) {
    for (Inbox& inbox : inboxes) inbox.clear();
    functionality_inbox.clear();
    for (const Message& m : arriving) {
      if (m.to == kFunctionality) {
        functionality_inbox.add(m);
      } else if (m.to == kBroadcast) {
        for (PartyId id = 0; id < n; ++id)
          if (machines[id] != nullptr && id != m.from) inboxes[id].add(m);
      } else if (m.to < n && machines[m.to] != nullptr) {
        if (!plan.partitions.empty() && m.from != kFunctionality &&
            link_blocked(m.from, m.to, at)) {
          ++result.traffic.blocked;
          continue;
        }
        inboxes[m.to].add(m);
      }
    }
  };

  const auto account = [&](const std::vector<Message>& sent) {
    for (const Message& m : sent) {
      // encoded_size prices the serialized frame without materializing it,
      // and runs pre-fault — the counts are pure functions of the traffic,
      // identical on every transport backend.
      const std::size_t frame = net::encoded_size(m);
      ++result.traffic.messages;
      result.traffic.wire_bytes += frame;
      if (m.to == kBroadcast) {
        ++result.traffic.broadcasts;
        result.traffic.wire_delivered_bytes += frame * (n - 1);
      } else {
        ++result.traffic.point_to_point;
        result.traffic.wire_delivered_bytes += frame;
      }
    }
  };

  // Watchdog: a round boundary is the only point where abandoning the
  // execution leaves no half-mutated machine state behind, so the deadline
  // is polled exactly there (and before the final delivery).  A repetition
  // stuck *inside* one round is out of the watchdog's reach by design; the
  // protocols' rounds are bounded compute.
  const auto check_deadline = [&](Round at) {
    if (config.deadline == std::chrono::steady_clock::time_point{}) return;
    if (std::chrono::steady_clock::now() < config.deadline) return;
    throw TimeoutError("run_execution: watchdog deadline expired at round boundary " +
                       std::to_string(at) + " of " + std::to_string(total_rounds));
  };

  for (Round round = 0; round < total_rounds; ++round) {
    check_deadline(round);
    obs::TraceSpan round_span("round");
    round_span.arg("round", round);
    const TrafficStats traffic_before = result.traffic;
    std::vector<Message> arriving = transport->collect(round);
    std::vector<Message> sent_this_round;

    // 0. Crashes scheduled for this round take effect before anyone acts.
    apply_crashes(round);

    // 1+2. Honest parties act on their deliveries.
    build_inboxes(arriving, round);
    for (PartyId id = 0; id < n; ++id) {
      if (!machines[id]) continue;
      try {
        machines[id]->on_round(round, inboxes[id], contexts[id]);
      } catch (const ProtocolError&) {
        fail_party(id);
        continue;
      } catch (const net::WorkerLost&) {
        crash_party(id, round);
        continue;
      }
      for (Message& m : contexts[id].take_outbox()) {
        m.round = round;
        sent_this_round.push_back(std::move(m));
      }
    }

    // Functionality acts on its deliveries.
    if (functionality) {
      FunctionalitySender fsender;
      functionality->on_round(round, functionality_inbox, functionality_drbg, fsender);
      for (Message& m : fsender.take_outbox()) {
        m.round = round;
        sent_this_round.push_back(std::move(m));
      }
    }

    // 3. Adversary: deliveries to corrupted parties + rushed same-round
    // view.  Deliveries respect the fault plan (a partitioned or dropped
    // message reaches no one); the rushed entitlement is a wiretap on the
    // senders and is therefore shown pre-fault.
    AdversaryView view;
    view.round = round;
    for (const Message& m : arriving) {
      const bool to_corrupted = m.to != kBroadcast && m.to != kFunctionality &&
                                is_corrupted(corrupted, m.to);
      const bool broadcast_msg = m.to == kBroadcast;
      if (to_corrupted && !plan.partitions.empty() && m.from != kFunctionality &&
          link_blocked(m.from, m.to, round)) {
        ++result.traffic.blocked;
        continue;
      }
      if (to_corrupted || broadcast_msg || (!config.private_channels && m.to != kFunctionality))
        view.delivered.add(m);
    }
    for (const Message& m : sent_this_round) {
      const bool to_corrupted = m.to != kBroadcast && m.to != kFunctionality &&
                                is_corrupted(corrupted, m.to);
      const bool broadcast_msg = m.to == kBroadcast;
      if (to_corrupted || broadcast_msg || (!config.private_channels && m.to != kFunctionality))
        view.rushed.add(m);
    }
    AdversarySender sender(corrupted);
    adversary.on_round(round, view, sender);
    for (Message& m : sender.take_outbox()) {
      m.round = round;
      sent_this_round.push_back(std::move(m));
    }

    account(sent_this_round);
    const std::size_t round_messages = result.traffic.messages - traffic_before.messages;
    const std::size_t round_bytes = result.traffic.wire_bytes - traffic_before.wire_bytes;
    record_round_metrics(round_messages, round_bytes);
    round_span.arg("messages", round_messages);
    round_span.arg("bytes", round_bytes);
    if (obs::trace_enabled())
      obs::trace_instant("round-traffic",
                         {{"round", round}, {"messages", round_messages}, {"bytes", round_bytes}});
    if (config.record_trace) result.trace[round] = sent_this_round;
    route(std::move(sent_this_round), round);
    if (obs::trace_enabled() || obs::log_enabled()) {
      const std::size_t round_dropped = result.traffic.dropped - traffic_before.dropped;
      const std::size_t round_blocked = result.traffic.blocked - traffic_before.blocked;
      if (round_dropped > 0 || round_blocked > 0) {
        if (obs::trace_enabled())
          obs::trace_instant("round-faults", {{"round", round},
                                              {"dropped", round_dropped},
                                              {"blocked", round_blocked}});
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kDebug, "round-faults", {{"round", round},
                                                                 {"dropped", round_dropped},
                                                                 {"blocked", round_blocked}});
      }
    }
    // This round's deliveries are fully consumed (the inbox views above are
    // dead); recycle their payload buffers for the next round's sends.
    for (Message& m : arriving) payload_pool.release(std::move(m.payload));
  }

  // Final delivery.
  check_deadline(total_rounds);
  apply_crashes(total_rounds);
  const std::vector<Message> final_arriving = transport->collect(total_rounds);
  build_inboxes(final_arriving, total_rounds);
  for (PartyId id = 0; id < n; ++id) {
    if (!machines[id]) continue;
    try {
      machines[id]->finish(inboxes[id], contexts[id]);
    } catch (const ProtocolError&) {
      fail_party(id);
    } catch (const net::WorkerLost&) {
      crash_party(id, total_rounds);
    }
  }
  if (config.record_trace) result.trace[total_rounds] = final_arriving;

  result.outputs.resize(n);
  for (PartyId id = 0; id < n; ++id) {
    if (!machines[id]) continue;
    try {
      result.outputs[id] = machines[id]->output();
    } catch (const Error&) {
      result.outputs[id] = std::nullopt;
    }
  }
  result.adversary_output = adversary.output();
  // Graceful end of the worker crew: reaped here, so the RemoteParty
  // destructors' retire() calls are no-ops on the normal path.
  if (crew != nullptr) crew->shutdown();
  // Worker deaths count as crashes even under an empty plan.
  if (!plan.empty() || result.traffic.crashed > 0) record_fault_metrics(result.traffic);
  record_alloc_metrics(payload_pool.stats());
  net::record_transport_metrics(*transport);
  transport->close();
  return result;
}

}  // namespace simulcast::sim
