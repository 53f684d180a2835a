#include "net/worker.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <string_view>
#include <system_error>

#include "base/error.h"
#include "net/transport.h"

namespace simulcast::net {

namespace {

std::string_view frame_type_name(std::uint8_t type) noexcept {
  return proc_frame_name(static_cast<ProcFrame>(type));
}

/// Reads and checks the magic + version preamble of a hello or ack body.
void expect_preamble(ByteReader& r, const std::string& what) {
  if (r.u32() != kProcMagic) throw ProtocolError(what + ": bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError(what + ": protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
}

}  // namespace

std::string_view proc_frame_name(ProcFrame type) noexcept {
  switch (type) {
    case ProcFrame::kHello: return "hello";
    case ProcFrame::kBegin: return "begin";
    case ProcFrame::kRound: return "round";
    case ProcFrame::kFinish: return "finish";
    case ProcFrame::kAck: return "ack";
    case ProcFrame::kOut: return "out";
    case ProcFrame::kFailed: return "failed";
    case ProcFrame::kOutput: return "output";
  }
  return "unknown";
}

void encode_worker_hello(const WorkerHello& hello, Bytes& out) {
  out.clear();
  ByteWriter w(out);
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(hello.n);
  w.u64(hello.slot);
  w.u64(hello.k);
  w.u64(hello.seed);
  w.u64(hello.rounds);
  w.u8(hello.input ? 1 : 0);
  w.u64(hello.fault_digest);
  w.str(hello.protocol);
  w.str(hello.commitments);
  w.str(hello.chaos);
}

WorkerHello decode_worker_hello(const Bytes& body) {
  ByteReader r(body);
  expect_preamble(r, "worker hello");
  WorkerHello hello;
  hello.n = r.u64();
  hello.slot = r.u64();
  hello.k = r.u64();
  hello.seed = r.u64();
  hello.rounds = r.u64();
  hello.input = r.u8() != 0;
  hello.fault_digest = r.u64();
  hello.protocol = r.str();
  hello.commitments = r.str();
  hello.chaos = r.str();
  if (!r.done()) throw ProtocolError("worker hello: trailing bytes");
  return hello;
}

void encode_worker_ack(const WorkerAck& ack, Bytes& out) {
  out.clear();
  ByteWriter w(out);
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(ack.slot);
  w.u64(ack.fault_digest);
}

WorkerAck decode_worker_ack(const Bytes& body) {
  ByteReader r(body);
  expect_preamble(r, "worker ack");
  WorkerAck ack;
  ack.slot = r.u64();
  ack.fault_digest = r.u64();
  if (!r.done()) throw ProtocolError("worker ack: trailing bytes");
  return ack;
}

WorkerChannel::WorkerChannel(int fd, std::chrono::milliseconds net_timeout)
    : Link(fd, &frame_type_name), net_timeout_(net_timeout) {}

template <class Done>
WorkerChannel::Status WorkerChannel::wait(std::chrono::milliseconds deadline, Done done) {
  const auto give_up = Link::Clock::now() + deadline;
  for (;;) {
    if (dead()) return Status::kBudget;
    if (done()) return Status::kOk;
    if (closed()) return Status::kEof;
    const auto now = Link::Clock::now();
    if (now >= give_up) return Status::kTimeout;
    // Sleep until the descriptor is ready or the Link has timer work
    // (an RTO, a delayed first transmission) — whichever comes first.
    const auto until = std::min(give_up, wake());
    if (until > now) {
      pollfd pfd{fd(), static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)), 0};
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(until - now);
      if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 && errno != EINTR)
        throw std::system_error(errno, std::generic_category(), "WorkerChannel: poll");
    }
    pump(Link::Clock::now());
  }
}

WorkerChannel::Status WorkerChannel::read_frame(ProcFrame& type, Bytes& body,
                                                std::chrono::milliseconds deadline) {
  return wait(deadline, [&] {
    const std::optional<Link::Record> record = next();
    if (!record) return false;
    type = static_cast<ProcFrame>(record->type);
    body.assign(record->body.begin(), record->body.end());
    return true;
  });
}

bool WorkerChannel::drain(std::chrono::milliseconds deadline) {
  release_held();  // exiting soon: no later frame will pass them
  return wait(deadline, [&] {
           // Absorb acks, and discard any stray retransmitted request: the
           // session is over for this end.
           while (next()) {
           }
           return settled();
         }) == Status::kOk;
}

std::chrono::milliseconds WorkerChannel::stall_deadline() const {
  if (!reliable()) return net_timeout_;
  return std::min(net_timeout_, std::max(std::chrono::milliseconds(1000), recovery_bound()));
}

}  // namespace simulcast::net
