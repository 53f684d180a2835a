#include "net/procs.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/transport.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"

extern char** environ;

namespace simulcast::net {

namespace {

struct ProcCounters {
  obs::Counter& spawned;
  obs::Counter& reaped;
  obs::Counter& killed;
};

ProcCounters& proc_counters() {
  static ProcCounters counters{
      obs::Metrics::global().counter("proc.spawned"),
      obs::Metrics::global().counter("proc.reaped"),
      obs::Metrics::global().counter("proc.killed"),
  };
  return counters;
}

/// Blocking waitpid for a child known to be exiting (post-SIGKILL or
/// post-EOF); EINTR-proof, never throws.
void reap_pid(pid_t pid) noexcept {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// A kOut body: the machine's outbox as one message batch.
std::vector<sim::Message> decode_outbox(const Bytes& body) {
  ByteReader r(body);
  std::vector<sim::Message> out;
  read_batch(r, out);
  return out;
}

}  // namespace

ProcSupervisor::ProcSupervisor(std::chrono::milliseconds net_timeout, WorkerHello hello)
    : net_timeout_(net_timeout), hello_(std::move(hello)), chaos_(parse_chaos_spec(hello_.chaos)) {
  workers_.resize(hello_.n);
}

ProcSupervisor::~ProcSupervisor() { shutdown(); }

void ProcSupervisor::spawn(std::size_t id, bool input) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) < 0)
    throw std::system_error(errno, std::generic_category(), "ProcSupervisor: socketpair");
  // The child end must land on fd 3 via adddup2, which only clears
  // FD_CLOEXEC when source != target — move it out of the way first.
  if (sv[1] < 4) {
    const int moved = ::fcntl(sv[1], F_DUPFD_CLOEXEC, 4);
    if (moved < 0) {
      const int err = errno;
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::system_error(err, std::generic_category(), "ProcSupervisor: fcntl");
    }
    ::close(sv[1]);
    sv[1] = moved;
  }

  const std::string timeout_arg =
      std::string(kWorkerTimeoutFlag) + std::to_string(net_timeout_.count());
  const std::string fd_arg = std::string(kWorkerFdFlag) + "3";
  std::vector<char*> argv;
  char exe[] = "/proc/self/exe";
  argv.push_back(exe);
  argv.push_back(const_cast<char*>(fd_arg.c_str()));
  argv.push_back(const_cast<char*>(timeout_arg.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, sv[1], 3);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(sv[1]);
  if (rc != 0) {
    ::close(sv[0]);
    // A transient condition (EAGAIN/ENOMEM under load), so system_error:
    // exec::Runner's retry policy gets to take another swing.
    throw std::system_error(rc, std::generic_category(), "ProcSupervisor: posix_spawn");
  }

  Worker& w = workers_[id];
  w.pid = pid;
  w.fd = sv[0];
  w.channel = std::make_unique<WorkerChannel>(sv[0], net_timeout_);
  proc_counters().spawned.add(1);
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kInfo, "worker-spawn",
                   {{"party", id}, {"pid", static_cast<std::uint64_t>(pid)}});

  hello_.slot = id;
  hello_.input = input;

  const auto handshake = [&] {
    Bytes body;
    encode_worker_hello(hello_, body);
    if (!w.channel->write_frame(ProcFrame::kHello, body))
      throw ProtocolError("worker gone before hello");
    ProcFrame type{};
    Bytes reply;
    const WorkerChannel::Status status = w.channel->read_frame(type, reply, net_timeout_);
    if (status == WorkerChannel::Status::kTimeout)
      throw ProtocolError("no ack within the stall deadline (--net-timeout)");
    if (status == WorkerChannel::Status::kEof) throw ProtocolError("worker rejected the hello");
    if (type != ProcFrame::kAck) throw ProtocolError("expected kAck");
    const std::uint64_t echoed = decode_worker_ack(reply);
    if (echoed != id) throw ProtocolError("ack echoed slot " + std::to_string(echoed));
  };
  // Any handshake failure kills and reaps the child before the throw — a
  // failed handshake must leave no process behind.
  const auto fail = [&](const char* what) {
    reap(id, /*force_kill=*/true);
    return ProtocolError("ProcSupervisor: P" + std::to_string(id) + " handshake: " + what);
  };
  try {
    handshake();
  } catch (const Error& e) {
    throw fail(e.what());
  } catch (const std::system_error& e) {
    throw fail(e.what());
  }

  // Handshake complete: a chaos-targeted channel switches to resilient
  // framing from the next frame on (the worker mirrors this right after
  // writing its ack).
  const std::string label = "coord:P" + std::to_string(id);
  if (chaos_.enabled() && chaos_.applies_to(id))
    w.channel->enable_chaos(chaos_, hello_.seed, label);
  else
    w.channel->set_label(label);
}

WorkerChannel& ProcSupervisor::live_channel(std::size_t id) {
  Worker& w = workers_[id];
  if (w.pid < 0 || w.channel == nullptr)
    throw UsageError("ProcSupervisor: no live worker for P" + std::to_string(id));
  return *w.channel;
}

void ProcSupervisor::observe_death(std::size_t id, const char* how) {
  Worker& w = workers_[id];
  const pid_t pid = w.pid;
  // A stalled or budget-dead worker is (probably) still alive; put it
  // down before reaping.
  const bool stalled =
      std::strcmp(how, "stall") == 0 || std::strcmp(how, "chaos-budget") == 0;
  reap(id, /*force_kill=*/stalled);
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kWarn, "worker-death",
                   {{"party", id}, {"pid", static_cast<std::uint64_t>(pid)}}, how);
  throw WorkerLost("ProcSupervisor: worker for P" + std::to_string(id) + " died (" + how + ")", id);
}

Bytes ProcSupervisor::call(std::size_t id, ProcFrame request, const Bytes& body,
                           ProcFrame reply) {
  WorkerChannel& channel = live_channel(id);
  if (!channel.write_frame(request, body)) observe_death(id, "eof");
  ProcFrame type{};
  Bytes out;
  const auto status = channel.read_frame(type, out, channel.stall_deadline());
  if (status == WorkerChannel::Status::kEof) observe_death(id, "eof");
  if (status == WorkerChannel::Status::kTimeout) observe_death(id, "stall");
  if (status == WorkerChannel::Status::kBudget) observe_death(id, "chaos-budget");
  if (type == ProcFrame::kFailed)
    throw ProtocolError("ProcSupervisor: P" + std::to_string(id) + " failed in place");
  if (type != reply)
    throw ProtocolError("ProcSupervisor: P" + std::to_string(id) + " sent an unexpected frame");
  return out;
}

std::vector<sim::Message> ProcSupervisor::begin(std::size_t id) {
  return decode_outbox(call(id, ProcFrame::kBegin, {}, ProcFrame::kOut));
}

std::vector<sim::Message> ProcSupervisor::round(std::size_t id, std::size_t round,
                                                const sim::Inbox& inbox) {
  ByteWriter w;
  w.u64(round);
  write_batch(w, inbox);
  return decode_outbox(call(id, ProcFrame::kRound, w.take(), ProcFrame::kOut));
}

std::optional<BitVec> ProcSupervisor::finish(std::size_t id, const sim::Inbox& inbox) {
  ByteWriter w;
  write_batch(w, inbox);
  const Bytes reply = call(id, ProcFrame::kFinish, w.take(), ProcFrame::kOutput);
  ByteReader r(reply);
  const bool has = r.u8() != 0;
  const std::uint32_t size = r.u32();
  const std::uint64_t packed = r.u64();
  if (!r.done()) throw ProtocolError("ProcSupervisor: output frame has trailing bytes");
  if (!has) return std::nullopt;
  return BitVec(size, packed);
}

void ProcSupervisor::reap(std::size_t id, bool force_kill) noexcept {
  Worker& w = workers_[id];
  if (w.pid < 0) return;
  if (w.channel != nullptr) chaos_stats_ += w.channel->chaos_stats();
  if (force_kill) {
    if (::kill(w.pid, SIGKILL) == 0) proc_counters().killed.add(1);
  }
  reap_pid(w.pid);
  proc_counters().reaped.add(1);
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "worker-exit",
                   {{"party", id}, {"pid", static_cast<std::uint64_t>(w.pid)}});
  if (w.fd >= 0) ::close(w.fd);
  w.pid = -1;
  w.fd = -1;
  w.channel.reset();
}

void ProcSupervisor::retire(std::size_t id) noexcept { reap(id, /*force_kill=*/true); }

void ProcSupervisor::shutdown() noexcept {
  // Closing the channel is the shutdown signal: live workers read EOF and
  // exit, finished workers have exited already.
  for (Worker& w : workers_) {
    if (w.channel != nullptr) chaos_stats_ += w.channel->chaos_stats();
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    w.channel.reset();
  }
  if (chaos_stats_.any()) {
    try {
      record_chaos_metrics(chaos_stats_);
    } catch (...) {
      // Metrics are best-effort inside a noexcept teardown.
    }
    chaos_stats_ = ChaosStats{};
  }
  const auto give_up = std::chrono::steady_clock::now() + net_timeout_;
  for (std::size_t id = 0; id < workers_.size(); ++id) {
    Worker& w = workers_[id];
    if (w.pid < 0) continue;
    for (;;) {
      int status = 0;
      const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
      if (rc == w.pid || (rc < 0 && errno != EINTR)) break;
      if (std::chrono::steady_clock::now() >= give_up) {
        // Past the stall deadline the worker forfeits its graceful exit.
        if (::kill(w.pid, SIGKILL) == 0) proc_counters().killed.add(1);
        reap_pid(w.pid);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    proc_counters().reaped.add(1);
    if (obs::log_enabled())
      obs::log_event(obs::LogLevel::kDebug, "worker-exit",
                     {{"party", id}, {"pid", static_cast<std::uint64_t>(w.pid)}});
    w.pid = -1;
  }
}

}  // namespace simulcast::net
