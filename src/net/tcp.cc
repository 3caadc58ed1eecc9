#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/codec.h"
#include "common/flags.h"

namespace loco::net {

namespace {

// epoll_event.data.u64 tags for the two non-connection descriptors; real
// connection ids start at 1 and count up, so they can never collide.
constexpr std::uint64_t kListenTag = UINT64_MAX;
constexpr std::uint64_t kWakeTag = UINT64_MAX - 1;

// Scatter-gather flush width: frames gathered into one sendmsg() call.
constexpr int kMaxIov = 64;

constexpr int kListenBacklog = 128;

// Outstanding calls multiplexed on one client connection before the channel
// opens another.
constexpr std::uint32_t kMaxPipeline = 32;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Wait for `events` on `fd` until the absolute steady-clock deadline.
// Returns >0 when ready, 0 on deadline, <0 on poll error.
int PollUntil(int fd, short events, common::Nanos deadline_abs) {
  for (;;) {
    const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
    if (remaining <= 0) return 0;
    struct pollfd pfd{fd, events, 0};
    // Round up so a sub-millisecond remainder still waits.
    const int timeout_ms =
        static_cast<int>(std::min<common::Nanos>((remaining + common::kMilli - 1) /
                                                     common::kMilli,
                                                 60'000));
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return n;
    if (n < 0 && errno != EINTR) return -1;
  }
}

// Write all of `data` before the deadline.
Status SendAll(int fd, std::string_view data, common::Nanos deadline_abs) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int r = PollUntil(fd, POLLOUT, deadline_abs);
      if (r == 0) return ErrStatus(ErrCode::kTimeout, "send deadline");
      if (r < 0) return ErrStatus(ErrCode::kUnavailable, "poll failed");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrStatus(ErrCode::kUnavailable, "peer closed during send");
  }
  return OkStatus();
}

// Encode the response frame to `req`: echoes the request's opcode and ids
// so the client's waiter matches.
std::string EncodeReply(const wire::FrameHeader& req, ErrCode code,
                        std::string_view payload) {
  wire::FrameHeader reply;
  reply.type = wire::FrameType::kResponse;
  reply.opcode = req.opcode;
  reply.request_id = req.request_id;
  reply.trace_id = req.trace_id;
  reply.code = code;
  return wire::EncodeFrame(reply, payload);
}

}  // namespace

std::string EncodeLoadStatus(const LoadStatus& status) {
  common::Writer w;
  w.PutU32(status.workers);
  w.PutU32(status.queued_foreground);
  w.PutU32(status.queued_background);
  w.PutU32(status.queued_control);
  w.PutU64(status.shed);
  w.PutU64(status.expired_dropped);
  w.PutU64(status.queue_delay_ewma_ns);
  w.PutU64(status.read_stalls);
  w.PutU64(status.slow_client_disconnects);
  return w.Take();
}

Status DecodeLoadStatus(std::string_view payload, LoadStatus* out) {
  common::Reader r(payload);
  out->workers = r.GetU32();
  out->queued_foreground = r.GetU32();
  out->queued_background = r.GetU32();
  out->queued_control = r.GetU32();
  out->shed = r.GetU64();
  out->expired_dropped = r.GetU64();
  out->queue_delay_ewma_ns = r.GetU64();
  out->read_stalls = r.GetU64();
  out->slow_client_disconnects = r.GetU64();
  if (!r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad load-status payload");
  }
  return OkStatus();
}

int DialTcp(const std::string& host, std::uint16_t port,
            common::Nanos deadline_abs) {
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      fd = -1;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS && PollUntil(fd, POLLOUT, deadline_abs) > 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
        break;
      }
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0 && IsSelfConnected(fd)) {
    ::close(fd);
    return -1;
  }
  if (fd >= 0) SetNoDelay(fd);
  return fd;
}

bool ParseHostPort(std::string_view spec, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  std::uint16_t value = 0;
  if (colon == std::string_view::npos || colon == 0 ||
      !common::ParseInt(spec.substr(colon + 1), &value)) {
    return false;
  }
  *host = std::string(spec.substr(0, colon));
  *port = value;
  return true;
}

// TCP simultaneous open lets a connect() to a loopback port with no
// listener succeed by connecting the socket to itself when the kernel
// happens to pick the destination port as the ephemeral source port.
// Such a socket echoes every request back verbatim as a "response".
bool IsSelfConnected(int fd) {
  struct sockaddr_storage local{};
  struct sockaddr_storage peer{};
  socklen_t local_len = sizeof(local);
  socklen_t peer_len = sizeof(peer);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&local),
                    &local_len) != 0 ||
      ::getpeername(fd, reinterpret_cast<struct sockaddr*>(&peer),
                    &peer_len) != 0) {
    return false;
  }
  return local_len == peer_len && std::memcmp(&local, &peer, local_len) == 0;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

struct TcpServer::Conn {
  Conn(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {}
  int fd;
  std::uint64_t id;
  // Zero-copy decode: recv() lands in the reader's refcounted arena and
  // request payloads dispatch as views pinned into it (docs/NET.md).
  wire::PinnedFrameReader reader;
  // Pending output: whole encoded frames, moved in (never memcpy'd) and
  // flushed with writev.  out_off is the partial-send offset into the front
  // buffer; out_bytes the total unsent bytes across the queue.
  std::deque<std::string> outq;
  std::size_t out_off = 0;
  std::size_t out_bytes = 0;
  bool want_write = false;  // EPOLLOUT currently registered
  bool dead = false;        // write side failed; remove on the next pass
  // Output backlog exceeded the soft cap: EPOLLIN is dropped until the peer
  // drains its responses.
  bool read_stalled = false;
  // Hello state (loop thread only).
  std::uint64_t client_id = 0;   // announced identity; 0 = anonymous
  bool notify = false;           // this conn is its client's notify session
  std::uint64_t notify_seq = 0;  // last push sequence number sent
};

TcpServer::TcpServer(RpcHandler* handler, Options options)
    : handler_(handler), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return ErrStatus(ErrCode::kInvalid, "server already running");
  }
  if (options_.workers < 1) {
    return ErrStatus(ErrCode::kInvalid, "a server needs at least one worker");
  }
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(options_.port);
  if (::getaddrinfo(options_.host.c_str(), service.c_str(), &hints, &res) != 0) {
    return ErrStatus(ErrCode::kInvalid, "cannot resolve " + options_.host);
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, kListenBacklog) == 0 && SetNonBlocking(fd)) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return ErrStatus(ErrCode::kUnavailable,
                     "cannot bind " + options_.host + ":" +
                         std::to_string(options_.port));
  }
  // Recover the kernel-assigned port for port=0 binds.
  struct sockaddr_storage addr{};
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len) ==
      0) {
    if (addr.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    } else if (addr.ss_family == AF_INET6) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
    }
  }
  if (::pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0]) ||
      !SetNonBlocking(wake_fds_[1])) {
    ::close(fd);
    for (int& w : wake_fds_) {
      if (w >= 0) ::close(w);
      w = -1;
    }
    return ErrStatus(ErrCode::kIo, "cannot create wake pipe");
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    ::close(fd);
    for (int& w : wake_fds_) {
      ::close(w);
      w = -1;
    }
    return ErrStatus(ErrCode::kIo, "cannot create epoll instance");
  }
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  queue_stop_ = false;
  for (auto& q : queues_) q.clear();
  completions_.clear();
  busy_.clear();
  running_.store(true, std::memory_order_release);
  // Fully populate busy_ before any worker indexes into it, and spawn the
  // event loop last so it never observes a half-built pool.
  for (int i = 0; i < options_.workers; ++i) busy_.emplace_back(false);
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&TcpServer::WorkerMain, this,
                          static_cast<std::size_t>(i));
  }
  thread_ = std::thread(&TcpServer::Loop, this);
  auto& reg = common::MetricsRegistry::Default();
  gauges_.push_back(reg.RegisterGauge(
      "rpc.tcp_server.workers",
      [this] { return static_cast<double>(options_.workers); }));
  gauges_.push_back(reg.RegisterGauge("rpc.tcp_server.queue_depth", [this] {
    std::scoped_lock lock(queue_mu_);
    std::size_t depth = 0;
    for (const auto& q : queues_) depth += q.size();
    return static_cast<double>(depth);
  }));
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    gauges_.push_back(reg.RegisterGauge(
        "rpc.tcp_server.worker" + std::to_string(i) + ".busy",
        [this, i] {
          return busy_[i].load(std::memory_order_relaxed) ? 1.0 : 0.0;
        }));
  }
  return OkStatus();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  {
    std::scoped_lock lock(queue_mu_);
    queue_stop_ = true;
    // Undelivered requests are dropped, like their connections.
    for (auto& q : queues_) q.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  for (int& w : wake_fds_) {
    if (w >= 0) ::close(w);
    w = -1;
  }
  // Releasing the handles retires the final gauge values into the registry,
  // so end-of-run --metrics-out dumps still carry the worker count.
  gauges_.clear();
  std::scoped_lock lock(notify_mu_);
  notify_conns_.clear();
  pending_notify_.clear();
}

bool TcpServer::PushNotify(std::uint64_t client_id, std::uint16_t opcode,
                           std::string payload) {
  if (client_id == 0 || !running_.load(std::memory_order_acquire)) return false;
  {
    std::scoped_lock lock(notify_mu_);
    if (notify_conns_.find(client_id) == notify_conns_.end()) {
      common::MetricsRegistry::Default()
          .GetCounter("notify.server.no_session")
          .Add();
      return false;
    }
    pending_notify_.push_back(PendingNotify{client_id, opcode, std::move(payload)});
  }
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  return true;
}

std::size_t TcpServer::BroadcastNotify(std::uint16_t opcode,
                                       std::string payload) {
  if (!running_.load(std::memory_order_acquire)) return 0;
  std::size_t sessions = 0;
  {
    std::scoped_lock lock(notify_mu_);
    sessions = notify_conns_.size();
    if (sessions == 0) return 0;
    pending_notify_.push_back(PendingNotify{0, opcode, std::move(payload)});
  }
  common::MetricsRegistry::Default()
      .GetCounter("notify.server.broadcasts")
      .Add();
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  return sessions;
}

std::size_t TcpServer::notify_sessions() const {
  std::scoped_lock lock(notify_mu_);
  return notify_conns_.size();
}

void TcpServer::SampleQueueDelay(const Work& work, common::Nanos dequeued_ns) {
  if (work.enqueue_ns == 0 || dequeued_ns <= work.enqueue_ns) return;
  const common::Nanos qdelay = dequeued_ns - work.enqueue_ns;
  queue_delay_hist_->Record(qdelay);
  // EWMA (alpha 0.2) of the admission-queue wait: the serving-load signal
  // behind RetryAfterPayload and GC pacing.  Single-writer per sample is not
  // guaranteed (any worker, or the loop, updates it), but a lost update
  // between concurrent dequeues only costs one sample of smoothing.
  const common::Nanos prev = queue_delay_ewma_ns_.load(std::memory_order_relaxed);
  queue_delay_ewma_ns_.store(prev - prev / 5 + qdelay / 5,
                             std::memory_order_relaxed);
}

std::optional<std::string> TcpServer::RunWork(const Work& work,
                                              DedupWindow::Wait wait) {
  const common::Nanos dequeued_ns = common::CpuTimer::Now();
  if (work.delay_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(work.delay_ns));
  }
  const wire::FrameHeader& req = work.header;
  if (work.expire_ns != 0 && common::CpuTimer::Now() > work.expire_ns) {
    // The caller's budget ran out while the request sat queued (or stalled):
    // answer kTimeout without executing.
    SampleQueueDelay(work, dequeued_ns);
    expired_metric_->Add();
    expired_total_.fetch_add(1, std::memory_order_relaxed);
    return EncodeReply(req, ErrCode::kTimeout, {});
  }
  const common::CpuTimer timer;
  RpcResponse resp;
  DedupWindow::Slot owned = nullptr;
  bool replayed = false;
  if (options_.dedup != nullptr && options_.dedup->Eligible(req.opcode)) {
    // Idempotent replay: a retried or duplicated mutation must not apply
    // twice.  The first arrival executes; later arrivals (including ones
    // racing the first) get the cached response verbatim.
    switch (options_.dedup->Begin(DedupWindow::Key(req, work.payload),
                                  &resp.code, &resp.payload, &owned, wait)) {
      case DedupWindow::Outcome::kRunning: return std::nullopt;
      case DedupWindow::Outcome::kReplay: replayed = true; break;
      case DedupWindow::Outcome::kExecute: break;
    }
  }
  SampleQueueDelay(work, dequeued_ns);
  const common::RpcMetricsTable::PerOp& m = metrics_.For(req.opcode);
  m.calls->Add();
  m.bytes_received->Add(work.payload.size());
  if (!replayed) {
    resp = handler_->HandleCtx(req.opcode, work.payload,
                               HandlerContext{work.client_id, req.trace_id});
    if (owned != nullptr) options_.dedup->Complete(owned, resp.code, resp.payload);
  }
  if (!resp.ok()) m.errors->Add();
  m.bytes_sent->Add(resp.payload.size());
  const common::Nanos elapsed = timer.ElapsedNanos();
  m.latency->Record(elapsed);
  if (!replayed && req.opcode < last_run_ns_.size()) {
    // Only a handler run says what the opcode costs: a replay is a lookup,
    // or a wait for its original, and would mark a slow batch cheap.
    // Floored at 1 ns: 0 means "never ran" to LoopRunnable.
    last_run_ns_[req.opcode].store(std::max<common::Nanos>(elapsed, 1),
                                   std::memory_order_relaxed);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  return EncodeReply(req, resp.code, resp.payload);
}

bool TcpServer::LoopRunnable(std::uint16_t opcode) const noexcept {
  if (opcode >= last_run_ns_.size()) return false;
  const common::Nanos last =
      last_run_ns_[opcode].load(std::memory_order_relaxed);
  return last > 0 && last <= kLoopRunMaxNs;
}

bool TcpServer::HandleHello(Conn* conn, const wire::PinnedFrame& frame) {
  wire::Hello hello;
  wire::HelloReply reply;
  reply.proto_version = wire::kVersion;
  reply.epoch = options_.epoch;
  ErrCode code = ErrCode::kOk;
  if (wire::DecodeHello(frame.payload, &hello).ok()) {
    if (conn->client_id != hello.client_id) {
      // Re-identifying a connection is legal (tests do); keep the per-client
      // connection counts honest across the switch.
      if (conn->client_id != 0) {
        auto it = client_conns_.find(conn->client_id);
        if (it != client_conns_.end() && --it->second == 0) {
          client_conns_.erase(it);
        }
      }
      if (hello.client_id != 0) ++client_conns_[hello.client_id];
    }
    conn->client_id = hello.client_id;
    if ((hello.features & wire::kFeatureNotify) != 0 && hello.client_id != 0) {
      // This connection becomes the client's notify session (latest wins —
      // a reconnecting listener replaces its predecessor's stale entry).
      reply.features = wire::kFeatureNotify;
      conn->notify = true;
      std::scoped_lock lock(notify_mu_);
      notify_conns_[hello.client_id] = conn->id;
    }
  } else {
    code = ErrCode::kInvalid;
  }
  return AppendResponse(
      conn, EncodeReply(frame.header, code,
                        code == ErrCode::kOk ? wire::EncodeHelloReply(reply)
                                             : std::string()));
}

bool TcpServer::HandleLoadStatus(Conn* conn, const wire::PinnedFrame& frame) {
  LoadStatus status;
  status.workers = static_cast<std::uint32_t>(options_.workers);
  {
    std::scoped_lock lock(queue_mu_);
    status.queued_foreground = static_cast<std::uint32_t>(
        queues_[wire::kPriorityForeground].size());
    status.queued_background = static_cast<std::uint32_t>(
        queues_[wire::kPriorityBackground].size());
    status.queued_control =
        static_cast<std::uint32_t>(queues_[wire::kPriorityControl].size());
  }
  status.shed = shed_total_.load(std::memory_order_relaxed);
  status.expired_dropped = expired_total_.load(std::memory_order_relaxed);
  status.queue_delay_ewma_ns = static_cast<std::uint64_t>(
      queue_delay_ewma_ns_.load(std::memory_order_relaxed));
  status.read_stalls = read_stall_total_.load(std::memory_order_relaxed);
  status.slow_client_disconnects =
      slow_disconnect_total_.load(std::memory_order_relaxed);
  return AppendResponse(conn, EncodeReply(frame.header, ErrCode::kOk,
                                          EncodeLoadStatus(status)));
}

std::string TcpServer::RetryAfterPayload() const {
  // Hint roughly one queue drain (the recent queue delay), floored so a shed
  // client never spins on a zero hint.
  common::Nanos hint = queue_delay_ewma_ns_.load(std::memory_order_relaxed);
  if (hint < common::kMilli) hint = common::kMilli;
  common::Writer w;
  w.PutU64(static_cast<std::uint64_t>(hint));
  return w.Take();
}

void TcpServer::CompleteWithError(std::uint64_t conn_id,
                                  const wire::FrameHeader& req, ErrCode code,
                                  std::string payload) {
  std::string bytes = EncodeReply(req, code, payload);
  {
    std::scoped_lock lock(comp_mu_);
    completions_.push_back(Completion{conn_id, std::move(bytes)});
  }
  // Self-wake: the loop only drains completions at the top of a round.
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void TcpServer::AdmitWork(Work&& work) {
  const std::uint8_t pri = work.header.priority < wire::kPriorityCount
                               ? work.header.priority
                               : wire::kPriorityForeground;
  const bool forced =
      options_.fault != nullptr && options_.fault->ForceQueueFull();
  // `work` is moved into a queue below; keep what the loop-run test needs.
  const std::uint16_t opcode = work.header.opcode;
  const common::Nanos delay_ns = work.delay_ns;
  bool shed_self = false;
  std::optional<Work> evicted;
  {
    std::scoped_lock lock(queue_mu_);
    // Control traffic is exempt from the cap: the load-status probe and its
    // kin must get through during the very overload they diagnose.
    const std::size_t bounded = queues_[wire::kPriorityForeground].size() +
                                queues_[wire::kPriorityBackground].size();
    const bool full =
        pri != wire::kPriorityControl &&
        (forced || (options_.max_queue > 0 && bounded >= options_.max_queue));
    if (!full) {
      queues_[pri].push_back(std::move(work));
    } else if (pri == wire::kPriorityForeground &&
               !queues_[wire::kPriorityBackground].empty()) {
      // Foreground displaces the oldest queued background request, which is
      // shed in its place.
      evicted = std::move(queues_[wire::kPriorityBackground].front());
      queues_[wire::kPriorityBackground].pop_front();
      queues_[pri].push_back(std::move(work));
    } else {
      shed_self = true;
    }
  }
  if (shed_self || evicted.has_value()) {
    shed_metric_->Add();
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    const Work& victim = shed_self ? work : *evicted;
    CompleteWithError(victim.conn_id, victim.header, ErrCode::kOverloaded,
                      RetryAfterPayload());
  }
  if (shed_self) return;
  if (++round_.admitted == 1 && delay_ns == 0 && LoopRunnable(opcode)) {
    // Maybe the round's only request: FinishRound decides whether the loop
    // runs it or a worker is woken.
    round_.held = true;
    return;
  }
  if (round_.held) {
    // A burst: wake a worker for the held request now, as for any other.
    round_.held = false;
    queue_cv_.notify_one();
  }
  queue_cv_.notify_one();
}

bool TcpServer::DrainFrames(Conn* conn) {
  while (auto frame = conn->reader.Next()) {
    if (frame->header.type != wire::FrameType::kRequest) return false;
    if (frame->zero_copy) {
      zerocopy_hits_->Add();
    } else {
      zerocopy_copies_->Add();
    }
    if (frame->header.opcode == wire::kCtlHello) {
      // Connection control precedes the fault plane: hello is part of the
      // transport, not the workload under test.
      if (!HandleHello(conn, *frame)) return false;
      continue;
    }
    if (frame->header.opcode == wire::kCtlLoadStatus) {
      // Also transport-level, and deliberately ahead of the fault plane and
      // the admission queues: the probe must answer while the server is busy
      // shedding everything else.
      if (!HandleLoadStatus(conn, *frame)) return false;
      continue;
    }
    bool dup = false;
    common::Nanos delay_ns = 0;
    if (options_.fault != nullptr) {
      const FaultInjector::FrameFate fate = options_.fault->OnServerFrame();
      if (fate.crash) {
        // Simulate kill -9 between a KV write and its successor: no atexit
        // handlers, no stdio flush, connections torn mid-stream.
        std::_Exit(137);
      }
      if (fate.reset) return false;
      if (fate.drop) continue;
      dup = fate.dup;
      delay_ns = fate.delay_ns;
    }
    // The wire deadline budget counts from decode: by the time the request
    // reaches a worker (or survives an injected delay) the caller may have
    // given up, and executing for an absent caller only deepens an overload.
    const common::Nanos decoded_ns = common::CpuTimer::Now();
    Work work;
    work.conn_id = conn->id;
    work.client_id = conn->client_id;
    work.header = frame->header;
    work.payload = frame->payload;
    work.pin = frame->pin;
    work.delay_ns = delay_ns;
    work.enqueue_ns = decoded_ns;
    work.expire_ns =
        frame->header.deadline_budget_ns > 0
            ? decoded_ns +
                  static_cast<common::Nanos>(frame->header.deadline_budget_ns)
            : 0;
    // A duplicated frame shares the payload view and its pin; RunWork only
    // reads the bytes.
    if (dup) AdmitWork(Work(work));
    AdmitWork(std::move(work));
  }
  // A framing violation is unrecoverable: drop the connection.
  return conn->reader.status().ok();
}

bool TcpServer::FlushWrites(Conn* conn) {
  while (conn->out_bytes > 0) {
    // Gather up to kMaxIov queued frames into one scatter-gather send; the
    // front buffer may already be partially written (out_off).
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t skip = conn->out_off;
    for (const std::string& frame : conn->outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[iovcnt].iov_len = frame.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    conn->out_bytes -= static_cast<std::size_t>(n);
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0) {
      std::string& front = conn->outq.front();
      const std::size_t remaining = front.size() - conn->out_off;
      if (sent < remaining) {
        conn->out_off += sent;
        break;
      }
      sent -= remaining;
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
  return true;
}

bool TcpServer::AppendResponse(Conn* conn, std::string&& bytes) {
  if (options_.fault != nullptr && options_.fault->ShortWriteResponse()) {
    // Torn response: deliver only the first half of the frame, push what the
    // socket accepts, then let the caller drop the connection.  The client
    // observes a desynchronized stream and must treat the call as failed.
    bytes.resize(bytes.size() / 2);
    if (!bytes.empty()) {
      conn->out_bytes += bytes.size();
      conn->outq.push_back(std::move(bytes));
    }
    FlushWrites(conn);
    return false;
  }
  if (!bytes.empty()) {
    if (conn->out_bytes + bytes.size() > 2 * kMaxConnOutputBytes) {
      // Twice the soft cap of undrained responses: the peer stopped reading
      // long ago (the soft cap already paused its requests).  Cut it loose
      // rather than buffer without bound.
      slow_disconnect_metric_->Add();
      slow_disconnect_total_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    conn->out_bytes += bytes.size();
    conn->outq.push_back(std::move(bytes));
  }
  return true;
}

void TcpServer::WorkerMain(std::size_t index) {
  for (;;) {
    Work w;
    {
      std::unique_lock lock(queue_mu_);
      ++idle_workers_;
      queue_cv_.wait(lock, [this] {
        if (queue_stop_) return true;
        for (const auto& q : queues_) {
          if (!q.empty()) return true;
        }
        return false;
      });
      --idle_workers_;
      if (queue_stop_) return;
      // Strict priority dequeue: control, then foreground, then background.
      std::deque<Work>* src = &queues_[wire::kPriorityControl];
      if (src->empty()) src = &queues_[wire::kPriorityForeground];
      if (src->empty()) src = &queues_[wire::kPriorityBackground];
      w = std::move(src->front());
      src->pop_front();
    }
    busy_[index].store(true, std::memory_order_relaxed);
    std::string bytes = *RunWork(w);
    busy_[index].store(false, std::memory_order_relaxed);
    {
      std::scoped_lock lock(comp_mu_);
      completions_.push_back(Completion{w.conn_id, std::move(bytes)});
    }
    // Wake the loop to deliver; a full pipe is fine (the loop is awake).
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void TcpServer::DeliverCompletions(
    const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns) {
  std::vector<Completion> batch;
  {
    std::scoped_lock lock(comp_mu_);
    batch.swap(completions_);
  }
  // Queue everything first, then flush each touched connection once: k
  // completions for one connection cost one sendmsg, not k.
  std::vector<Conn*> touched;
  for (Completion& c : batch) {
    const auto it = conns.find(c.conn_id);
    if (it == conns.end()) continue;  // connection dropped meanwhile
    Conn* conn = it->second.get();
    if (conn->dead) continue;
    if (!AppendResponse(conn, std::move(c.bytes))) {
      conn->dead = true;
      continue;
    }
    if (std::find(touched.begin(), touched.end(), conn) == touched.end()) {
      touched.push_back(conn);
    }
  }
  for (Conn* conn : touched) {
    if (!conn->dead && !FlushWrites(conn)) conn->dead = true;
  }
}

void TcpServer::FinishRound(
    const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns) {
  const bool held = round_.held;
  round_ = Round{};
  if (!held) return;
  Work work;
  std::deque<Work>* only = nullptr;
  {
    std::scoped_lock lock(queue_mu_);
    // An idle worker means one would have picked the request up at once
    // anyway; with every worker busy, leave it queued so shedding, expiry and
    // priorities apply to it like to anything else.  A worker that was awake
    // regardless may already have taken the held request, so the one queued
    // must itself qualify.
    std::size_t depth = 0;
    for (auto& q : queues_) {
      depth += q.size();
      if (!q.empty()) only = &q;
    }
    if (idle_workers_ > 0 && depth == 1 && only->front().delay_ns == 0 &&
        LoopRunnable(only->front().header.opcode)) {
      work = std::move(only->front());
      only->pop_front();
    } else {
      only = nullptr;
    }
  }
  std::optional<std::string> bytes;
  if (only != nullptr) {
    bytes = RunWork(work, DedupWindow::Wait::kNo);
    if (!bytes) {
      // A duplicate whose original is still running: waiting for it here
      // would stall every connection.  It goes back where it was, and a
      // worker waits in the window instead.
      std::scoped_lock lock(queue_mu_);
      only->push_front(std::move(work));
    }
  }
  if (!bytes) {
    queue_cv_.notify_one();
    return;
  }
  // Counted before the reply leaves, so a caller holding the reply sees it.
  loop_runs_.fetch_add(1, std::memory_order_relaxed);
  loop_runs_metric_->Add();
  const auto it = conns.find(work.conn_id);
  if (it == conns.end() || it->second->dead) return;
  Conn* conn = it->second.get();
  if (!AppendResponse(conn, std::move(*bytes)) || !FlushWrites(conn)) {
    conn->dead = true;
  }
}

void TcpServer::SendNotifyFrame(Conn* conn, std::uint16_t opcode,
                                const std::string& payload) {
  int copies = 1;
  if (options_.fault != nullptr) {
    const FaultInjector::NotifyFate fate = options_.fault->OnNotifyFrame();
    if (fate.drop) {
      // The push is lost but its sequence number is consumed, so the client
      // sees a gap on the next frame and resynchronizes.
      ++conn->notify_seq;
      return;
    }
    if (fate.dup) copies = 2;  // same sequence number twice; client ignores
  }
  wire::FrameHeader header;
  header.type = wire::FrameType::kNotify;
  header.opcode = opcode;
  header.request_id = ++conn->notify_seq;
  // Notify frames bypass AppendResponse: the short-write fault models torn
  // *responses* and must not fire on the push path.  A duplicated push is
  // encoded twice (same sequence number; the client ignores the replay).
  for (int copy = 0; copy < copies; ++copy) {
    std::string bytes = wire::EncodeFrame(header, payload);
    conn->out_bytes += bytes.size();
    conn->outq.push_back(std::move(bytes));
  }
  common::MetricsRegistry::Default().GetCounter("notify.server.pushed").Add();
}

void TcpServer::DrainNotify(
    const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns) {
  std::vector<PendingNotify> batch;
  {
    std::scoped_lock lock(notify_mu_);
    if (pending_notify_.empty()) return;
    batch.swap(pending_notify_);
  }
  for (PendingNotify& p : batch) {
    if (p.client_id != 0) {
      std::uint64_t conn_id = 0;
      {
        std::scoped_lock lock(notify_mu_);
        const auto it = notify_conns_.find(p.client_id);
        if (it == notify_conns_.end()) continue;  // client disconnected
        conn_id = it->second;
      }
      const auto it = conns.find(conn_id);
      if (it == conns.end() || it->second->dead) continue;
      SendNotifyFrame(it->second.get(), p.opcode, p.payload);
      if (!FlushWrites(it->second.get())) it->second->dead = true;
    } else {
      for (const auto& [id, conn] : conns) {
        if (!conn->notify || conn->dead) continue;
        SendNotifyFrame(conn.get(), p.opcode, p.payload);
        if (!FlushWrites(conn.get())) conn->dead = true;
      }
    }
  }
}

void TcpServer::ForgetNotifySession(const Conn& conn) {
  if (!conn.notify) return;
  bool forgotten = false;
  {
    std::scoped_lock lock(notify_mu_);
    const auto it = notify_conns_.find(conn.client_id);
    if (it != notify_conns_.end() && it->second == conn.id) {
      notify_conns_.erase(it);
      forgotten = true;
    }
  }
  // The client's push stream is gone: tell the owner now (lease watches and
  // undeliverable pushes die with it) instead of waiting for a failed push.
  if (forgotten && options_.on_notify_disconnect &&
      !stop_.load(std::memory_order_acquire)) {
    options_.on_notify_disconnect(conn.client_id);
  }
}

void TcpServer::SyncWriteInterest(Conn* conn) {
  const bool want = conn->out_bytes > 0;
  // Soft output cap: a reader this far behind loses EPOLLIN until its
  // backlog drains below the cap — the slow client stalls itself, not the
  // daemon's memory (docs/OVERLOAD.md).
  const bool stall = conn->out_bytes > kMaxConnOutputBytes;
  if (want == conn->want_write && stall == conn->read_stalled) return;
  struct epoll_event ev{};
  ev.events = (stall ? 0u : EPOLLIN) | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    if (stall && !conn->read_stalled) {
      read_stall_metric_->Add();
      read_stall_total_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->want_write = want;
    conn->read_stalled = stall;
  }
}

void TcpServer::CloseConn(
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>* conns,
    std::uint64_t id) {
  const auto it = conns->find(id);
  if (it == conns->end()) return;
  Conn* conn = it->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  ForgetNotifySession(*conn);
  const std::uint64_t client_id = conn->client_id;
  conns->erase(it);
  if (client_id != 0) {
    auto cit = client_conns_.find(client_id);
    if (cit != client_conns_.end() && --cit->second == 0) {
      client_conns_.erase(cit);
      if (options_.on_client_disconnect &&
          !stop_.load(std::memory_order_acquire)) {
        options_.on_client_disconnect(client_id);
      }
    }
  }
}

void TcpServer::Loop() {
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  char wake_drain[256];
  std::array<struct epoll_event, 128> events;
  std::vector<std::uint64_t> doomed;
  auto& reg = common::MetricsRegistry::Default();
  common::Counter& epoll_waits = reg.GetCounter("rpc.tcp_server.epoll.waits");
  common::Counter& epoll_events = reg.GetCounter("rpc.tcp_server.epoll.events");
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    epoll_waits.Add();
    epoll_events.Add(static_cast<std::uint64_t>(n));
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kWakeTag) {
        while (::read(wake_fds_[0], wake_drain, sizeof(wake_drain)) > 0) {
        }
      } else if (events[i].data.u64 == kListenTag) {
        accept_ready = true;
      }
    }
    DeliverCompletions(conns);
    DrainNotify(conns);
    if (accept_ready) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          ::close(fd);
          continue;
        }
        SetNoDelay(fd);
        auto conn = std::make_unique<Conn>(fd, next_conn_id++);
        struct epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
          ::close(fd);
          continue;
        }
        conns.emplace(conn->id, std::move(conn));
      }
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag || tag == kWakeTag) continue;
      const auto it = conns.find(tag);
      if (it == conns.end()) continue;  // already closed this round
      Conn* conn = it->second.get();
      if (conn->dead) continue;  // swept below
      const std::uint32_t revents = events[i].events;
      bool alive = true;
      if (revents & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        for (;;) {
          // Zero-copy ingest: recv straight into the reader's arena, so the
          // payload views DrainFrames dispatches are the kernel's bytes.
          std::size_t capacity = 0;
          char* dst = conn->reader.RecvInto(wire::kMinRecvWindow, &capacity);
          const ssize_t r = ::recv(conn->fd, dst, capacity, 0);
          if (r > 0) {
            conn->reader.Commit(static_cast<std::size_t>(r));
            // A short read likely drained the socket; epoll is
            // level-triggered, so later bytes are reported next round.
            if (static_cast<std::size_t>(r) < capacity) break;
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          alive = false;  // orderly close or hard error
          break;
        }
        if (alive) alive = DrainFrames(conn);
      }
      if (alive && conn->out_bytes > 0) alive = FlushWrites(conn);
      if (!alive) conn->dead = true;
    }
    FinishRound(conns);
    // End-of-round sweep: reap failed connections, then reconcile EPOLLOUT
    // interest on the survivors (completions and notify pushes above may
    // have queued output on connections with no event this round).
    doomed.clear();
    for (const auto& [id, conn] : conns) {
      if (conn->dead) doomed.push_back(id);
    }
    for (const std::uint64_t id : doomed) CloseConn(&conns, id);
    for (const auto& [id, conn] : conns) SyncWriteInterest(conn.get());
  }
  for (const auto& [id, conn] : conns) ::close(conn->fd);
}

// ---------------------------------------------------------------------------
// TcpChannel
// ---------------------------------------------------------------------------

TcpChannel::PipeConn::~PipeConn() { ::close(fd); }

TcpChannel::TcpChannel(TcpChannelOptions options)
    : options_(options),
      pipeline_depth_(&common::MetricsRegistry::Default().GetHistogram(
          "rpc.tcp.pipeline_depth", "requests")) {}

void TcpChannel::Register(NodeId id, std::string host, std::uint16_t port) {
  auto ep = std::make_unique<Endpoint>();
  ep->host = std::move(host);
  ep->port = port;
  endpoints_[id] = std::move(ep);
}

bool TcpChannel::Register(NodeId id, std::string_view host_port) {
  std::string host;
  std::uint16_t port = 0;
  if (!ParseHostPort(host_port, &host, &port)) return false;
  Register(id, std::move(host), port);
  return true;
}

void TcpChannel::DisconnectAll() {
  for (auto& [id, ep] : endpoints_) {
    std::scoped_lock lock(ep->mu);
    ep->conns.clear();
  }
}

std::shared_ptr<TcpChannel::PipeConn> TcpChannel::AcquireConn(
    Endpoint& ep, common::Nanos deadline_abs, bool* reused, ErrCode* err) {
  {
    std::scoped_lock lock(ep.mu);
    std::erase_if(ep.conns, [](const std::shared_ptr<PipeConn>& c) {
      return c->dead.load(std::memory_order_acquire);
    });
    std::shared_ptr<PipeConn> pick;
    std::uint32_t low = 0;
    for (const auto& c : ep.conns) {
      const std::uint32_t n = c->inflight.load(std::memory_order_relaxed);
      if (n >= kMaxPipeline) continue;
      if (!pick || n < low) {
        pick = c;
        low = n;
      }
    }
    if (pick) {
      pick->inflight.fetch_add(1, std::memory_order_relaxed);
      *reused = true;
      return pick;
    }
  }
  // One connect attempt: a refused peer fails the call at once, and retry
  // with backoff is ResilientChannel's job.
  const common::Nanos now = common::CpuTimer::Now();
  const int fd = now < deadline_abs
                     ? DialTcp(ep.host, ep.port,
                               std::min(deadline_abs, now + kDialTimeoutNs))
                     : -1;
  if (fd < 0) {
    *err = common::CpuTimer::Now() >= deadline_abs ? ErrCode::kTimeout
                                                   : ErrCode::kUnavailable;
    return nullptr;
  }
  auto conn = std::make_shared<PipeConn>(fd);
  if (options_.client_id != 0) {
    // Fire-and-forget hello: identifies this mount to the server without
    // costing a round trip.  Request id 0 is never used by calls, so the
    // first call's reader discards the reply.
    wire::Hello hello;
    hello.client_id = options_.client_id;
    wire::FrameHeader header;
    header.type = wire::FrameType::kRequest;
    header.opcode = wire::kCtlHello;
    header.request_id = 0;
    header.trace_id = NextTraceId();
    // A send failure surfaces on the first real call; nothing to do here.
    (void)SendAll(fd, wire::EncodeFrame(header, wire::EncodeHello(hello)),
                  deadline_abs);
  }
  conn->inflight.store(1, std::memory_order_relaxed);
  *reused = false;
  std::scoped_lock lock(ep.mu);
  ep.conns.push_back(conn);
  return conn;
}

void TcpChannel::ReadReplies(std::unique_lock<std::mutex>& lock,
                             PipeConn& conn, common::Nanos wait_until) {
  conn.reading = true;
  lock.unlock();
  // The reader needs no lock while `reading` is set; the waiter table does.
  // One recv sweep drains however many pipelined responses arrived, straight
  // into the reader's arena.
  if (wait_until > 0) {
    const common::Nanos remaining = wait_until - common::CpuTimer::Now();
    if (remaining > 0) {
      struct pollfd pfd{conn.fd, POLLIN, 0};
      const struct timespec ts{
          static_cast<time_t>(remaining / common::kSecond),
          static_cast<long>(remaining % common::kSecond)};
      // Readable, expired or interrupted: the sweep below tells which.
      (void)::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
  bool dead = false;
  ErrCode fail_code = ErrCode::kUnavailable;
  for (;;) {
    std::size_t capacity = 0;
    char* dst = conn.reader.RecvInto(wire::kMinRecvWindow, &capacity);
    const ssize_t n = ::recv(conn.fd, dst, capacity, MSG_DONTWAIT);
    if (n > 0) {
      conn.reader.Commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < capacity) break;  // likely drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    dead = true;  // orderly close or hard error
    break;
  }
  lock.lock();
  conn.reading = false;
  std::size_t dispatched = 0;
  while (auto frame = conn.reader.Next()) {
    if (frame->header.type == wire::FrameType::kNotify) {
      // Push frame on an RPC connection (pooled conns never ask for
      // notify, but tolerate it): not addressed to any waiter.
      continue;
    }
    if (frame->header.type != wire::FrameType::kResponse) {
      dead = true;
      fail_code = ErrCode::kCorruption;
      break;
    }
    const auto it = conn.waiting.find(frame->header.request_id);
    if (it == conn.waiting.end()) {
      // The hello's reply (id 0), or a response to a call that already timed
      // out: drop it.
      continue;
    }
    Waiter* w = it->second;
    conn.waiting.erase(it);
    // The one copy out of the arena: the chunk is recycled once unpinned.
    w->code = frame->header.code;
    w->payload.assign(frame->payload);
    w->done = true;
    w->cv.notify_one();
    ++dispatched;
  }
  if (dispatched > 0) frames_->Add(dispatched);
  if (!dead && !conn.reader.status().ok()) {
    dead = true;
    fail_code = ErrCode::kCorruption;
  }
  if (dead) FailConnLocked(conn, fail_code);
}

void TcpChannel::FailConnLocked(PipeConn& conn, ErrCode code) {
  if (conn.broken == ErrCode::kOk) conn.broken = code;
  conn.dead.store(true, std::memory_order_release);
  for (auto& [rid, w] : conn.waiting) {
    w->done = true;
    w->fail = conn.broken;
    w->cv.notify_one();
  }
  conn.waiting.clear();
  ::shutdown(conn.fd, SHUT_RDWR);
}

bool TcpChannel::RegisterWaiter(PipeConn& conn, std::uint64_t request_id,
                                Waiter* w) {
  std::scoped_lock lock(conn.mu);
  if (conn.broken != ErrCode::kOk) return false;
  conn.waiting.emplace(request_id, w);
  pipeline_depth_->Record(static_cast<common::Nanos>(conn.waiting.size()));
  return true;
}

void TcpChannel::AwaitWaiter(PipeConn& conn, std::uint64_t request_id,
                             Waiter& w, common::Nanos deadline_abs) {
  // Spin, then park.  A blocking caller's response is typically one loopback
  // round trip away, and parking at once would put a futex wake-up on the
  // call's critical path.  While spinning, the reader sweeps the socket
  // without blocking and the other callers yield on `done`; after the spin,
  // the reader blocks in ppoll and the others sleep on their own cv.
  constexpr common::Nanos kSpinNs = 200'000;
  const common::Nanos spin_until =
      std::min(common::CpuTimer::Now() + kSpinNs, deadline_abs);
  std::unique_lock lock(conn.mu);
  for (;;) {
    if (w.done) break;
    if (conn.broken != ErrCode::kOk) {
      w.done = true;
      w.fail = conn.broken;
      break;
    }
    const common::Nanos now = common::CpuTimer::Now();
    if (now >= deadline_abs) {
      // Leave the request outstanding on the wire; the conn stays usable and
      // a later reader discards the eventual response (no later call gets
      // the same id).
      conn.waiting.erase(request_id);
      w.done = true;
      w.fail = ErrCode::kTimeout;
      break;
    }
    const bool spinning = now < spin_until;
    if (!conn.reading) {
      ReadReplies(lock, conn, spinning ? 0 : deadline_abs);
      if (!spinning || w.done) continue;
    } else if (!spinning) {
      w.parked = true;
      w.cv.wait_for(lock, std::chrono::nanoseconds(deadline_abs - now));
      w.parked = false;
      continue;
    }
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  // Hand the socket over: a caller asleep on its cv would otherwise sleep
  // while its response sits unread.  One that is spinning, or whose thread
  // is awaiting another leg, reads for itself when it gets here.
  if (conn.reading) return;
  for (const auto& [rid, other] : conn.waiting) {
    if (other->parked) {
      other->cv.notify_one();
      return;
    }
  }
}

void TcpChannel::IssueLegs(const std::vector<CallLeg>& legs,
                           const std::vector<std::size_t>& issue,
                           std::vector<LegState>& state,
                           std::uint64_t trace_id, Priority priority,
                           common::Nanos deadline_abs) {
  // Group by endpoint, in order of first appearance.
  std::vector<std::pair<Endpoint*, std::vector<std::size_t>>> bursts;
  for (const std::size_t i : issue) {
    auto it = std::find_if(bursts.begin(), bursts.end(), [&](const auto& b) {
      return b.first == state[i].ep;
    });
    if (it == bursts.end()) {
      bursts.emplace_back(state[i].ep, std::vector<std::size_t>{});
      it = std::prev(bursts.end());
    }
    it->second.push_back(i);
  }
  for (auto& [ep, group] : bursts) {
    bool reused = false;
    ErrCode conn_err = ErrCode::kUnavailable;
    const std::shared_ptr<PipeConn> conn =
        AcquireConn(*ep, deadline_abs, &reused, &conn_err);
    if (!conn) {
      for (const std::size_t i : group) state[i].Fail(conn_err);
      continue;
    }
    // AcquireConn reserved one slot; reserve the rest of the burst.
    conn->inflight.fetch_add(static_cast<std::uint32_t>(group.size()) - 1,
                             std::memory_order_relaxed);
    std::string burst;
    for (const std::size_t i : group) {
      LegState& leg = state[i];
      leg.reused = reused;
      wire::FrameHeader header;
      header.type = wire::FrameType::kRequest;
      header.opcode = legs[i].opcode;
      header.trace_id = trace_id;
      // Overload control (docs/OVERLOAD.md): what is left of the call's
      // patience, re-stamped at send time, plus its priority class.
      const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
      if (remaining > 0) {
        header.deadline_budget_ns = static_cast<std::uint64_t>(remaining);
      }
      header.priority = static_cast<std::uint8_t>(priority);
      header.request_id =
          ep->next_request_id.fetch_add(1, std::memory_order_relaxed);
      if (!RegisterWaiter(*conn, header.request_id, &leg.waiter)) {
        conn->inflight.fetch_sub(1, std::memory_order_relaxed);
        leg.Fail(ErrCode::kUnavailable);
        continue;
      }
      leg.conn = conn;
      leg.request_id = header.request_id;
      wire::EncodeFrameInto(header, legs[i].payload, &burst);
    }
    if (burst.empty()) continue;
    Status st;
    {
      std::scoped_lock wlock(conn->write_mu);
      st = SendAll(conn->fd, burst, deadline_abs);
    }
    if (!st.ok()) {
      // A partially-sent burst desynchronizes every call on the stream; this
      // fails every waiter registered on the connection.
      std::scoped_lock lock(conn->mu);
      FailConnLocked(*conn, st.code());
    }
  }
}

void TcpChannel::FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                             std::function<void(std::vector<RpcResponse>)> done) {
  const common::CpuTimer timer;
  std::vector<RpcResponse> out(legs.size());
  std::vector<LegState> state(legs.size());
  std::vector<std::size_t> issue;
  issue.reserve(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const common::RpcMetricsTable::PerOp& m = metrics_.For(legs[i].opcode);
    m.calls->Add();
    m.bytes_sent->Add(legs[i].payload.size());
    const auto it = endpoints_.find(legs[i].server);
    if (it == endpoints_.end()) {
      state[i].Fail(ErrCode::kUnavailable);
    } else if (legs[i].payload.size() > wire::kMaxPayloadBytes) {
      state[i].Fail(ErrCode::kInvalid);
    } else {
      state[i].ep = it->second.get();
      issue.push_back(i);
    }
  }
  const common::Nanos deadline_ns =
      meta.deadline_ns > 0 ? meta.deadline_ns : options_.call_deadline_ns;
  const common::Nanos deadline_abs = common::CpuTimer::Now() + deadline_ns;
  const std::uint64_t trace_id =
      meta.trace_id != 0 ? meta.trace_id : NextTraceId();

  // Attempt 0 may share a pooled connection the server has silently closed;
  // a leg that fails there before any response reached it is retried once on
  // a fresh connection.  A fresh-connection failure is authoritative.
  for (int attempt = 0; attempt < 2 && !issue.empty(); ++attempt) {
    IssueLegs(legs, issue, state, trace_id, meta.priority, deadline_abs);
    std::vector<std::size_t> retry;
    for (const std::size_t i : issue) {
      LegState& leg = state[i];
      if (leg.conn) {
        AwaitWaiter(*leg.conn, leg.request_id, leg.waiter, deadline_abs);
        leg.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
        leg.conn.reset();
      }
      if (attempt == 0 && leg.reused &&
          leg.waiter.fail == ErrCode::kUnavailable) {
        leg.waiter.done = false;
        leg.waiter.fail = ErrCode::kOk;
        retry.push_back(i);
      }
    }
    issue = std::move(retry);
  }

  const common::Nanos elapsed = timer.ElapsedNanos();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const common::RpcMetricsTable::PerOp& m = metrics_.For(legs[i].opcode);
    Waiter& w = state[i].waiter;
    if (w.fail != ErrCode::kOk) {
      out[i].code = w.fail;
    } else {
      out[i].code = w.code;
      out[i].payload = std::move(w.payload);
      m.bytes_received->Add(out[i].payload.size());
    }
    if (!out[i].ok()) m.errors->Add();
    m.latency->Record(elapsed);
  }
  done(std::move(out));
}

void TcpChannel::CallAsync(NodeId server, std::uint16_t opcode,
                           std::string payload,
                           std::function<void(RpcResponse)> done) {
  CallAsyncMeta(server, opcode, std::move(payload), CallMeta{}, std::move(done));
}

void TcpChannel::CallAsyncMeta(NodeId server, std::uint16_t opcode,
                               std::string payload, const CallMeta& meta,
                               std::function<void(RpcResponse)> done) {
  std::vector<CallLeg> legs;
  legs.push_back(CallLeg{server, opcode, std::move(payload)});
  FanOutAsync(std::move(legs), meta, [&done](std::vector<RpcResponse> out) {
    done(std::move(out.front()));
  });
}

}  // namespace loco::net
