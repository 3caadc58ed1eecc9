#include "net/notify.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/codec.h"
#include "common/metrics.h"
#include "net/tcp.h"

namespace loco::net {

// ---------------------------------------------------------------------------
// Event codecs
// ---------------------------------------------------------------------------

std::string EncodeInvalidate(const InvalidateEvent& event) {
  common::Writer w;
  w.PutBytes(event.path);
  w.PutU8(event.subtree ? 1 : 0);
  w.PutU64(event.wall_ts_ns);
  return w.Take();
}

Status DecodeInvalidate(std::string_view bytes, InvalidateEvent* out) {
  common::Reader r(bytes);
  out->path = r.GetString();
  out->subtree = r.GetU8() != 0;
  out->wall_ts_ns = r.GetU64();
  if (!r.ok() || !r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad invalidate event");
  }
  return OkStatus();
}

std::string EncodeServerUp(const ServerUpEvent& event) {
  common::Writer w;
  w.PutU32(event.node);
  w.PutU64(event.epoch);
  w.PutU64(event.wall_ts_ns);
  return w.Take();
}

Status DecodeServerUp(std::string_view bytes, ServerUpEvent* out) {
  common::Reader r(bytes);
  out->node = r.GetU32();
  out->epoch = r.GetU64();
  out->wall_ts_ns = r.GetU64();
  if (!r.ok() || !r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad server-up event");
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// NotifyListener
// ---------------------------------------------------------------------------

namespace {

// How long the hello exchange on a fresh stream connection may take.
constexpr common::Nanos kHelloTimeoutNs = 2 * common::kSecond;

struct ListenerCounters {
  common::Counter* reconnects;
  common::Counter* resyncs;
  common::Counter* gaps;
  common::Counter* dups;
  common::Counter* invalidates;
  common::Counter* server_ups;
  common::Counter* stream_down;

  static const ListenerCounters& Get() {
    static const ListenerCounters c = [] {
      auto& reg = common::MetricsRegistry::Default();
      return ListenerCounters{&reg.GetCounter("notify.listener.reconnects"),
                              &reg.GetCounter("notify.listener.resyncs"),
                              &reg.GetCounter("notify.listener.gaps"),
                              &reg.GetCounter("notify.listener.dups"),
                              &reg.GetCounter("notify.listener.invalidates"),
                              &reg.GetCounter("notify.listener.server_ups"),
                              &reg.GetCounter("notify.listener.stream_down")};
    }();
    return c;
  }
};

// Wait for `events` on `fd`, interruptible by a byte on `stop_fd`.
// Returns 1 when fd is ready, 0 on deadline (deadline_abs > 0 only),
// -1 on stop or poll error.
int PollStoppable(int fd, int stop_fd, short events,
                  common::Nanos deadline_abs) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_abs > 0) {
      const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
      if (remaining <= 0) return 0;
      timeout_ms = static_cast<int>(
          std::min<common::Nanos>((remaining + common::kMilli - 1) /
                                      common::kMilli,
                                  60'000));
    }
    struct pollfd pfds[2] = {{fd, events, 0}, {stop_fd, POLLIN, 0}};
    const int n = ::poll(pfds, 2, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) {
      if (deadline_abs > 0) return 0;
      continue;
    }
    if (pfds[1].revents != 0) return -1;  // stop requested
    if (pfds[0].revents != 0) return 1;
  }
}

bool SendAllStoppable(int fd, int stop_fd, std::string_view data,
                      common::Nanos deadline_abs) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (PollStoppable(fd, stop_fd, POLLOUT, deadline_abs) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

NotifyListener::NotifyListener(Options options, Callback callback)
    : options_(std::move(options)), callback_(std::move(callback)) {}

NotifyListener::~NotifyListener() { Stop(); }

Status NotifyListener::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return ErrStatus(ErrCode::kInvalid, "listener already started");
  }
  if (::pipe(stop_fds_) != 0) {
    started_.store(false, std::memory_order_release);
    return ErrStatus(ErrCode::kIo, "cannot create stop pipe");
  }
  thread_ = std::thread(&NotifyListener::Run, this);
  return OkStatus();
}

void NotifyListener::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(stop_fds_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  for (int& fd : stop_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void NotifyListener::Emit(NotifyEvent::Kind kind) {
  NotifyEvent event;
  event.kind = kind;
  callback_(event);
}

bool NotifyListener::RecvOne(int fd, wire::PinnedFrameReader* reader,
                             wire::PinnedFrame* out,
                             common::Nanos deadline_abs) {
  for (;;) {
    if (auto frame = reader->Next()) {
      *out = std::move(*frame);
      return true;
    }
    if (!reader->status().ok()) return false;
    if (PollStoppable(fd, stop_fds_[0], POLLIN, deadline_abs) <= 0) {
      return false;
    }
    std::size_t capacity = 0;
    char* dst = reader->RecvInto(wire::kMinRecvWindow, &capacity);
    const ssize_t n = ::recv(fd, dst, capacity, 0);
    if (n > 0) {
      reader->Commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    return false;  // orderly close or hard error
  }
}

void NotifyListener::RunOnce(bool* ever_connected, bool* connected_this_cycle) {
  const auto& counters = ListenerCounters::Get();
  const int fd = DialTcp(options_.host, options_.port,
                         common::CpuTimer::Now() + kDialTimeoutNs);
  if (fd < 0) return;

  // Hello: ask the server to make this connection our notify session.
  wire::Hello hello;
  hello.features = wire::kFeatureNotify;
  hello.client_id = options_.client_id;
  wire::FrameHeader header;
  header.type = wire::FrameType::kRequest;
  header.opcode = wire::kCtlHello;
  header.request_id = 1;
  header.trace_id = NextTraceId();
  const common::Nanos hello_deadline =
      common::CpuTimer::Now() + kHelloTimeoutNs;
  wire::PinnedFrameReader reader;
  wire::PinnedFrame reply;
  wire::HelloReply granted;
  if (!SendAllStoppable(fd, stop_fds_[0],
                        wire::EncodeFrame(header, wire::EncodeHello(hello)),
                        hello_deadline) ||
      !RecvOne(fd, &reader, &reply, hello_deadline) ||
      reply.header.type != wire::FrameType::kResponse ||
      reply.header.opcode != wire::kCtlHello ||
      reply.header.code != ErrCode::kOk ||
      !DecodeHelloReply(reply.payload, &granted).ok() ||
      (granted.features & wire::kFeatureNotify) == 0) {
    // No stream: the hello failed or was refused.  Like a failed connect,
    // back off and redial.
    ::close(fd);
    return;
  }

  *connected_this_cycle = true;
  epoch_.store(granted.epoch, std::memory_order_release);
  connected_.store(true, std::memory_order_release);
  if (*ever_connected) {
    // Pushes may have been lost while the stream was down (this includes a
    // server restart — the epoch bump is informational, the reconnect alone
    // forces the resync).
    counters.reconnects->Add();
    counters.resyncs->Add();
    Emit(NotifyEvent::Kind::kResync);
  }
  *ever_connected = true;

  std::uint64_t expected_seq = 1;  // per-connection, server starts at 1
  for (;;) {
    wire::PinnedFrame frame;
    if (!RecvOne(fd, &reader, &frame, /*deadline_abs=*/0)) break;
    if (frame.header.type != wire::FrameType::kNotify) break;
    const std::uint64_t seq = frame.header.request_id;
    if (seq < expected_seq) {
      counters.dups->Add();  // duplicated push (e.g. injected dup fault)
      continue;
    }
    if (seq > expected_seq) {
      // Lost push(es): the stream is ack-less, so the only safe move is to
      // drop cached state.  The carried frame itself is still delivered.
      counters.gaps->Add();
      counters.resyncs->Add();
      Emit(NotifyEvent::Kind::kResync);
      expected_seq = seq;
    }
    ++expected_seq;
    NotifyEvent event;
    switch (frame.header.opcode) {
      case wire::kNotifyInvalidate:
        if (!DecodeInvalidate(frame.payload, &event.invalidate).ok()) break;
        event.kind = NotifyEvent::Kind::kInvalidate;
        counters.invalidates->Add();
        callback_(event);
        break;
      case wire::kNotifyServerUp:
        if (!DecodeServerUp(frame.payload, &event.server_up).ok()) break;
        event.kind = NotifyEvent::Kind::kServerUp;
        counters.server_ups->Add();
        callback_(event);
        break;
      default:
        break;  // unknown notify opcode: ignore (forward compatibility)
    }
  }
  ::close(fd);
  connected_.store(false, std::memory_order_release);
  if (!stop_.load(std::memory_order_acquire)) {
    counters.stream_down->Add();
    Emit(NotifyEvent::Kind::kStreamDown);
  }
}

void NotifyListener::Run() {
  bool ever_connected = false;
  common::Nanos backoff = kBackoffBaseNs;
  while (!stop_.load(std::memory_order_acquire)) {
    bool connected_this_cycle = false;
    RunOnce(&ever_connected, &connected_this_cycle);
    backoff = connected_this_cycle ? kBackoffBaseNs
                                   : std::min(backoff * 2, kBackoffCapNs);
    // Interruptible backoff sleep (no data descriptor; only the stop pipe
    // can cut the wait short).
    (void)PollStoppable(-1, stop_fds_[0], 0,
                        common::CpuTimer::Now() + backoff);
  }
  connected_.store(false, std::memory_order_release);
}

}  // namespace loco::net
