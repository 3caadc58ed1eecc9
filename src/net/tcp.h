// Real TCP transport (docs/NET.md).
//
// TcpServer hosts one RpcHandler behind an epoll-driven event loop
// (level-triggered; a self-pipe still wakes the loop for cross-thread
// nudges).  Each connection is registered once with EPOLLIN and its EPOLLOUT
// interest toggled only when buffered output appears or drains, so the loop
// never rebuilds a descriptor array per wakeup the way the old poll() loop
// did.  Responses are queued as whole encoded frames (one std::string per
// frame, moved — never memcpy'd — into a per-connection deque) and flushed
// with scatter-gather writev; a frame's buffer is freed once the socket has
// taken all of it.  Every request
// takes one path: decoded incrementally (net/wire.h) on the loop thread,
// admitted to a bounded queue, and executed by a pool of worker threads in
// any order — even requests from the same connection.  A lone cheap request
// (the only admission of its loop round, nothing else queued, a worker idle,
// and its opcode's last run took at most 50 µs), read or mutation alike, is
// run by the loop itself at the end of the round, saving the two thread
// wake-ups of the worker hand-off; the loop never waits in the dedup window,
// so a duplicate whose original is still running goes to a worker.  A reply
// is appended to its connection as soon as it exists, so replies on one
// connection may leave in any order: clients match them by the echoed
// request id.  Handlers must be thread-safe (DMS, FMS, and the object store
// all are).  A handler's RpcResponse::extra_service_ns (modeled device time)
// is a simulator input and is ignored here: no server path sleeps except the
// fault plane's injected delay.  Malformed streams drop the connection; they
// never crash the daemon or wedge the loop.
//
// TcpChannel is the client side: a net::Channel whose NodeIds map to
// host:port endpoints.  Each endpoint keeps a small set of connections and
// **pipelines** up to 32 concurrent calls on each one,
// correlating responses by the wire header's request id (responses may
// arrive out of order).  A fan-out (FanOutAsync) puts every leg on the wire
// before awaiting any: the legs for one endpoint go out as one burst on one
// pooled connection, so a call to N servers waits one round, not N.  A
// single call is a one-leg fan-out.  The channel runs no thread: the callers
// waiting on a connection read it themselves, one at a time.  The reader
// drains the socket into a wire::PinnedFrameReader (one recv sweep, so a
// pipelined burst of N responses costs one syscall, not N) and completes
// every waiter whose response it finds by request id; a reader that leaves
// while others still wait hands the socket to one of them.  Nobody reads an
// idle connection: a late response, or the server's close, waits in the
// kernel until the next call on it.  Every request
// carries what is left of its deadline and its priority class in the frame
// header (docs/OVERLOAD.md).  The channel enforces a per-call deadline,
// makes one connect attempt per call (ResilientChannel owns retry with
// backoff), and surfaces failures exactly like the in-process transport does
// — kUnavailable for unreachable/dead peers, kTimeout for an expired
// deadline, kCorruption for framing violations — so the client-side
// FMS-outage fallbacks work unchanged over real sockets.  Calls complete
// inline (the transport blocks the calling thread), which keeps
// net::RunInline-driven code working.
//
// Both sides record per-opcode metrics through common::RpcMetricsTable:
// rpc.tcp.* on the channel (round-trip view) and rpc.tcp_server.* on the
// server (service view), both in wall-clock nanoseconds.  The server also
// exposes rpc.tcp_server.workers / .queue_depth / .worker<i>.busy gauges and
// the channel records the rpc.tcp.pipeline_depth histogram (docs/METRICS.md).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/dedup.h"
#include "net/fault.h"
#include "net/notify.h"
#include "net/rpc.h"
#include "net/wire.h"

namespace loco::net {

// Split "host:port" ("127.0.0.1:9000"); false on malformed input.
bool ParseHostPort(std::string_view spec, std::string* host,
                   std::uint16_t* port);

// Cap on one connect() wait; a call's own deadline may cut it shorter.
inline constexpr common::Nanos kDialTimeoutNs = common::kSecond;

// One bounded non-blocking connect attempt (resolve, connect, poll until the
// absolute steady-clock deadline, self-connect check, TCP_NODELAY); returns
// the connected fd or -1.  Exposed for net::NotifyListener's dedicated
// stream connection.
int DialTcp(const std::string& host, std::uint16_t port,
            common::Nanos deadline_abs);

// True when a connected socket's local and peer addresses are identical —
// the TCP simultaneous-open self-connection a loopback connect() to a dead
// port in the ephemeral range can produce.  Such a socket echoes every
// request back verbatim; the channel treats it as a connection failure.
bool IsSelfConnected(int fd);

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

// wire::kCtlLoadStatus reply payload: a point-in-time view of one server's
// admission state (docs/OVERLOAD.md).  Answered by the event loop itself,
// so it works against every daemon regardless of handler.
struct LoadStatus {
  std::uint32_t workers = 0;
  std::uint32_t queued_foreground = 0;
  std::uint32_t queued_background = 0;
  std::uint32_t queued_control = 0;
  std::uint64_t shed = 0;             // admission rejections + evictions
  std::uint64_t expired_dropped = 0;  // expired work dropped at dequeue
  std::uint64_t queue_delay_ewma_ns = 0;
  std::uint64_t read_stalls = 0;             // slow readers paused
  std::uint64_t slow_client_disconnects = 0; // slow readers dropped
};

std::string EncodeLoadStatus(const LoadStatus& status);
Status DecodeLoadStatus(std::string_view payload, LoadStatus* out);

class TcpServer : public Notifier {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned; read port() after Start
    // Worker threads executing handler calls; Start() refuses fewer than
    // one.  The handler must be thread-safe, and the loop thread calls it
    // too: when a round admits one request, nothing else is queued, a
    // worker is idle, no delay is injected and the opcode's last run took
    // at most kLoopRunMaxNs, the loop runs it instead of waking a worker —
    // unless it is a duplicate whose original is still running, which a
    // worker waits out in the dedup window (docs/NET.md).
    int workers = 1;
    // Optional fault plane (--fault-spec): decoded request frames may be
    // dropped, duplicated, delayed, or answered with a torn response, and the
    // process may _exit mid-stream.  Not owned; must outlive the server.
    FaultInjector* fault = nullptr;
    // Optional idempotent-replay window: eligible mutations executed once,
    // duplicates answered from the cached response.  Not owned; shared by a
    // daemon across restarts of its server object.
    DedupWindow* dedup = nullptr;
    // Server incarnation reported in hello replies.  Daemons persist a
    // counter in --store-dir and bump it per start, so clients can tell a
    // restart from a plain reconnect.
    std::uint64_t epoch = 0;
    // Housekeeping hooks, both invoked on the loop thread with no server
    // lock held (safe to call PushNotify etc., but keep them quick — the
    // event loop is stalled while they run).  on_notify_disconnect fires
    // when a client's notify session is torn down (its push stream is gone:
    // the DMS drops the client's lease watches immediately instead of
    // waiting out the expiry sweep).  on_client_disconnect fires when the
    // *last* connection that said hello as `client_id` closes (the client
    // process is gone).  Not fired during server Stop() — shutdown is not a
    // client crash.
    std::function<void(std::uint64_t client_id)> on_notify_disconnect;
    std::function<void(std::uint64_t client_id)> on_client_disconnect;
    // Admission control (docs/OVERLOAD.md): cap on queued-but-unstarted
    // requests across the foreground and background classes together
    // (control traffic is exempt; 0 = unbounded).  At the cap a background
    // arrival is shed with ErrCode::kOverloaded + a retry-after hint; a
    // foreground arrival first evicts the oldest queued background request
    // (which is shed the same way) and is only refused when none is queued.
    std::size_t max_queue = 4096;
  };

  // Per-connection cap on buffered response bytes.  Above this soft cap the
  // server stops reading the connection (a slow reader stalls itself, not
  // the daemon); above twice the cap the connection is dropped.
  static constexpr std::size_t kMaxConnOutputBytes = 8u << 20;

  explicit TcpServer(RpcHandler* handler) : TcpServer(handler, Options{}) {}
  TcpServer(RpcHandler* handler, Options options);
  ~TcpServer() override;
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Notifier: queue a kNotify frame for one client's notify session (or all
  // of them).  Thread-safe; the frame is written by the loop thread.  Pushes
  // are fire-and-forget — a dead session drops them, and the client-side
  // sequence check turns any loss into a resync.
  bool PushNotify(std::uint64_t client_id, std::uint16_t opcode,
                  std::string payload) override;
  std::size_t BroadcastNotify(std::uint16_t opcode,
                              std::string payload) override;
  // Notify sessions currently registered (tests).
  std::size_t notify_sessions() const;

  // Bind, listen and spawn the event-loop and worker threads (kInvalid
  // when Options::workers < 1).  One Start per instance.
  Status Start();
  // Close the listening socket and every connection, then join the loop and
  // the workers (queued-but-unstarted requests are dropped).  Idempotent;
  // also run by the destructor.
  void Stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& host() const noexcept { return options_.host; }
  int workers() const noexcept { return options_.workers; }
  // Requests executed by the handler so far (tests / daemon stats).
  std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  // Requests the event loop ran itself instead of waking a worker, this
  // server instance only.
  std::uint64_t loop_runs() const noexcept {
    return loop_runs_.load(std::memory_order_relaxed);
  }

  // A request may run on the loop only if the previous run of
  // its opcode took at most this long: above every single-op metadata
  // handler, below an fsync'd WAL append or a large listing, which would
  // hold every other connection's I/O for their whole run.
  static constexpr common::Nanos kLoopRunMaxNs = 50 * common::kMicro;
  // Recent admission-queue delay (EWMA over worker dequeues, nanoseconds) —
  // the serving-load signal housekeeping subscribes to for adaptive pacing
  // (core::GcManager::SetLoadSignal).  Thread-safe.
  common::Nanos RecentQueueDelayNs() const noexcept {
    return queue_delay_ewma_ns_.load(std::memory_order_relaxed);
  }
  // Requests shed with kOverloaded / expired work dropped at dequeue, this
  // server instance only (the rpc.tcp_server.* counters are process-wide).
  std::uint64_t shed_count() const noexcept {
    return shed_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t expired_dropped_count() const noexcept {
    return expired_total_.load(std::memory_order_relaxed);
  }
  // Slow-reader backpressure, this instance only: reads paused at the soft
  // output cap / connections dropped at the hard cap.
  std::uint64_t read_stall_count() const noexcept {
    return read_stall_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_client_disconnect_count() const noexcept {
    return slow_disconnect_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  // One decoded request headed for the worker pool.  The payload is a view
  // into the connection's receive arena; `pin` keeps the backing chunk alive
  // until the worker finishes (zero-copy decode, docs/NET.md).
  struct Work {
    std::uint64_t conn_id = 0;
    std::uint64_t client_id = 0;  // from the connection's hello; 0 = unknown
    wire::FrameHeader header;
    std::string_view payload;
    std::shared_ptr<const std::string> pin;
    common::Nanos delay_ns = 0;    // injected stall before service
    common::Nanos enqueue_ns = 0;  // admission time (queue-delay measurement)
    // Absolute expiry from the wire deadline budget; 0 = none.  Workers drop
    // expired work at dequeue instead of executing for an absent caller.
    common::Nanos expire_ns = 0;
  };
  // One encoded response headed back to the loop thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
  };
  // One queued push (loop thread turns it into a kNotify frame).
  struct PendingNotify {
    std::uint64_t client_id = 0;  // 0 = broadcast to every notify session
    std::uint16_t opcode = 0;
    std::string payload;
  };

  void Loop();
  void WorkerMain(std::size_t index);
  // Serve one dequeued request: the injected
  // delay, then kTimeout if its deadline lapsed, else the dedup window's
  // claim and the handler (or the cached reply), with metrics, the queue-
  // delay sample when it was queued, and — after a handler run — the
  // opcode's last-run time.  Returns the encoded response.  With
  // Wait::kNo, a duplicate whose original is still running is not served:
  // nullopt, and nothing was sampled, counted or recorded.  Workers and the
  // loop run both go through here.
  std::optional<std::string> RunWork(
      const Work& work, DedupWindow::Wait wait = DedupWindow::Wait::kYes);
  // Fold one queued request's admission-queue wait into the histogram and
  // the EWMA behind RecentQueueDelayNs.
  void SampleQueueDelay(const Work& work, common::Nanos dequeued_ns);
  // True when a lone request of `opcode` may run on the loop: its last
  // handler run on this server took at most kLoopRunMaxNs (an opcode that
  // never ran is not cheap).
  bool LoopRunnable(std::uint16_t opcode) const noexcept;
  // End of an event-loop round: when the round held back its first
  // admission's wake-up, the loop runs the queued request itself if it is
  // the only one, a worker is parked idle and it is loop-runnable (no
  // injected delay, cheap opcode history); otherwise a worker is woken as
  // usual.  A loop run the dedup window turns away (its original is still
  // running) goes back to the front of its queue for a worker.
  void FinishRound(
      const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns);
  // Decode every complete frame buffered on `conn` and admit each; returns
  // false when the connection must be dropped (framing violation).
  bool DrainFrames(Conn* conn);
  // Answer a kCtlHello on the loop thread (the client id must be
  // known before any dispatch) and register the notify session when asked.
  bool HandleHello(Conn* conn, const wire::PinnedFrame& frame);
  // Answer a kCtlLoadStatus on the loop thread (the loop owns the
  // admission queues; no handler dispatch, works under full saturation).
  bool HandleLoadStatus(Conn* conn, const wire::PinnedFrame& frame);
  // Admission: enqueue the decoded request or shed it (and possibly an
  // older background request) with kOverloaded, then wake a worker — except
  // for a round's first admission when it is a loop-run candidate, whose
  // wake waits for FinishRound (or for a second admission in the same
  // round).
  void AdmitWork(Work&& work);
  // Answer a refused request on `conn_id` with `code` (no handler execution)
  // through the completion path: an evicted request may belong to another
  // connection than the one being drained.
  void CompleteWithError(std::uint64_t conn_id, const wire::FrameHeader& req,
                         ErrCode code, std::string payload);
  // Encode the kOverloaded retry-after hint payload (EWMA queue delay).
  std::string RetryAfterPayload() const;
  // Flush pending response bytes; returns false on a dead peer.
  bool FlushWrites(Conn* conn);
  // Queue one encoded response on `conn`, applying the injected short-write
  // fault (truncate mid-frame, flush what fits, then drop the connection).
  // Returns false when the connection must be dropped.
  bool AppendResponse(Conn* conn, std::string&& bytes);
  // Move finished worker results into their connections' output buffers,
  // then flush each touched connection once.
  void DeliverCompletions(
      const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns);
  // Turn queued pushes into kNotify frames on their sessions' connections.
  void DrainNotify(
      const std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns);
  // Append one sequence-numbered kNotify frame (fault plane may drop or
  // duplicate it).
  void SendNotifyFrame(Conn* conn, std::uint16_t opcode,
                       const std::string& payload);
  // Drop `conn`'s notify session if it still points at this connection.
  void ForgetNotifySession(const Conn& conn);
  // Reconcile the connection's EPOLLOUT interest with whether it has
  // buffered output (EPOLL_CTL_MOD only on transitions).
  void SyncWriteInterest(Conn* conn);
  // Unregister, close and erase one connection (its queued output dies
  // with it).
  void CloseConn(std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>* conns,
                 std::uint64_t id);

  RpcHandler* handler_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop()/workers wake the event loop
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> requests_{0};

  // Worker pool.  Admission queues are bounded and per-priority (dequeue
  // order control > foreground > background; see Options::max_queue for
  // the shed policy).
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queues_[wire::kPriorityCount];
  bool queue_stop_ = false;
  int idle_workers_ = 0;  // parked in queue_cv_.wait (guarded by queue_mu_)
  std::mutex comp_mu_;
  std::vector<Completion> completions_;
  std::deque<std::atomic<bool>> busy_;  // one flag per worker (gauges)

  // Loop-run state.  `round_` is loop-thread only: what this round admitted,
  // and whether the first admission's worker wake is held back for
  // FinishRound.  last_run_ns_ holds each opcode's most recent handler run
  // time, replays excluded (0 = never ran; opcodes >= 256 have no slot and
  // always go to a worker).
  struct Round {
    int admitted = 0;
    bool held = false;
  };
  Round round_;
  std::array<std::atomic<common::Nanos>, 256> last_run_ns_{};
  std::atomic<std::uint64_t> loop_runs_{0};
  common::Counter* loop_runs_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.loop_runs");
  std::vector<common::MetricsRegistry::GaugeHandle> gauges_;

  // Notify plane: client_id → conn id of its (single) notify session, plus
  // pushes queued for the loop thread.
  mutable std::mutex notify_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> notify_conns_;
  std::vector<PendingNotify> pending_notify_;

  // client_id → number of live connections that said hello as that id.
  // Loop thread only: maintained by HandleHello/CloseConn, consulted to fire
  // Options::on_client_disconnect when a client's last connection dies.
  std::unordered_map<std::uint64_t, std::uint64_t> client_conns_;

  // Requests whose payload was dispatched as a view pinned into the receive
  // arena (no decode-time copy); .copies counts the chunk-straddlers.
  common::Counter* zerocopy_hits_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.zerocopy_hits");
  common::Counter* zerocopy_copies_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.bufpool.zerocopy_copies");

  // Overload-control state (docs/OVERLOAD.md).  Per-instance totals back
  // the LoadStatus reply; the rpc.tcp_server.* counters are process-wide.
  std::atomic<common::Nanos> queue_delay_ewma_ns_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> expired_total_{0};
  std::atomic<std::uint64_t> read_stall_total_{0};
  std::atomic<std::uint64_t> slow_disconnect_total_{0};
  common::Counter* shed_metric_ =
      &common::MetricsRegistry::Default().GetCounter("rpc.tcp_server.shed");
  common::Counter* expired_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.expired_dropped");
  common::Counter* read_stall_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.read_stalls");
  common::Counter* slow_disconnect_metric_ =
      &common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.slow_client_disconnects");
  common::LatencyHistogram* queue_delay_hist_ =
      &common::MetricsRegistry::Default().GetHistogram(
          "rpc.tcp_server.queue_delay", "wall_ns");

  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "tcp_server", "wall_ns"};
};

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct TcpChannelOptions {
  // The mount's one per-call deadline (send + receive, including connect
  // time); CallMeta::deadline_ns overrides per call.  A ResilientChannel
  // over this channel spreads it across all attempts of a call.
  common::Nanos call_deadline_ns = kDefaultCallDeadlineNs;
  // Mount identity announced in a fire-and-forget hello on every fresh
  // connection (request id 0 — never used by calls, so its reply is
  // discarded).  The server attributes requests on the connection to this
  // id (HandlerContext), which is how the DMS knows not to invalidate the
  // mutating client's own lease.  0 skips the hello (anonymous).  The hello
  // never asks for notify: the push stream belongs on the NotifyListener's
  // dedicated connection.
  std::uint64_t client_id = 0;
};

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(TcpChannelOptions options = {});

  // Map `id` to an endpoint.  Like InProcTransport::Register: perform all
  // registrations before serving traffic.
  void Register(NodeId id, std::string host, std::uint16_t port);
  // Same, from a "host:port" spec; false on malformed input.
  bool Register(NodeId id, std::string_view host_port);

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override;
  void CallAsyncMeta(NodeId server, std::uint16_t opcode, std::string payload,
                     const CallMeta& meta,
                     std::function<void(RpcResponse)> done) override;
  // Sends every leg, then waits for all responses; completes inline.  A leg
  // that fails with kUnavailable on a reused pooled connection before any
  // response arrived is retried once, together with its fellow failures, on
  // a fresh connection; a fresh-connection failure is authoritative.
  void FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                   std::function<void(std::vector<RpcResponse>)> done) override;
  common::Nanos call_deadline_ns() const override {
    return options_.call_deadline_ns;
  }

  // Drop the pool's reference to every connection (tests; forces fresh
  // connects).  Calls in flight keep theirs and keep reading; each socket
  // closes with its last reference.
  void DisconnectAll();

 private:
  // One caller blocked on a pipelined response.  Each waiter has its own
  // condition variable, so a reader wakes exactly the owning caller.  The
  // connection's mu guards it until AwaitWaiter returns.
  struct Waiter {
    ErrCode code = ErrCode::kOk;  // the response's code
    std::string payload;          // copied out of the reader's arena
    bool done = false;
    ErrCode fail = ErrCode::kOk;
    bool parked = false;         // asleep on cv while another caller reads
    std::condition_variable cv;  // paired with the connection's mu
  };

  // A connection multiplexing many concurrent calls.  Shared by reference
  // count: the endpoint list holds one reference, every active call another;
  // the socket closes when the last reference drops.
  struct PipeConn {
    explicit PipeConn(int fd_in) : fd(fd_in) {}
    ~PipeConn();

    const int fd;
    std::atomic<bool> dead{false};       // failed; skipped and pruned
    std::atomic<std::uint32_t> inflight{0};  // reservations (load balancing)
    std::mutex write_mu;  // serializes request bytes onto the socket
    std::mutex mu;        // guards everything below (except `reader`)
    wire::PinnedFrameReader reader;  // owned by the caller that set `reading`
    bool reading = false;            // a caller is reading the socket
    std::unordered_map<std::uint64_t, Waiter*> waiting;
    ErrCode broken = ErrCode::kOk;  // terminal failure code
  };

  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    std::mutex mu;
    std::vector<std::shared_ptr<PipeConn>> conns;
    // Request ids count up from 1 (0 is the hello's) in 64 bits and never
    // wrap, so an id names one call for the channel's lifetime.
    std::atomic<std::uint64_t> next_request_id{1};
  };

  // Per-leg state of one fan-out attempt.
  struct LegState {
    Endpoint* ep = nullptr;  // null: unknown server
    Waiter waiter;
    std::shared_ptr<PipeConn> conn;  // set once the leg's waiter is registered
    std::uint64_t request_id = 0;
    bool reused = false;  // the connection predates this attempt

    void Fail(ErrCode code) {
      waiter.done = true;
      waiter.fail = code;
    }
  };
  // Put every leg in `issue` on the wire: one burst per endpoint, each on
  // one pooled connection.  A leg that cannot be sent is completed with its
  // failure code; every other leg is left registered for AwaitWaiter.
  void IssueLegs(const std::vector<CallLeg>& legs,
                 const std::vector<std::size_t>& issue,
                 std::vector<LegState>& state, std::uint64_t trace_id,
                 Priority priority, common::Nanos deadline_abs);
  // Pick a connection, or dial one (a single attempt, bounded by the call
  // deadline and kDialTimeoutNs), and reserve one inflight slot on it.
  // `reused` reports whether the connection predates this call — only those
  // are eligible for the stale-connection retry.  nullptr on connect
  // failure, with *err set: kTimeout when the call deadline ran out,
  // kUnavailable when the peer refused or did not answer.
  std::shared_ptr<PipeConn> AcquireConn(Endpoint& ep,
                                        common::Nanos deadline_abs,
                                        bool* reused, ErrCode* err);
  // Add `w` to the conn's waiter table under `request_id`; false when the
  // connection already failed.
  bool RegisterWaiter(PipeConn& conn, std::uint64_t request_id, Waiter* w);
  // Block until `w` completes or `deadline_abs` passes.  One waiting caller
  // at a time reads the connection (ReadReplies) and completes every waiter
  // whose response it finds; the others yield-spin on `done` briefly, then
  // sleep on their own cv.  The reader sweeps without blocking while it
  // spins, then blocks in ppoll until its own deadline.  A caller leaving
  // with nobody reading and waiters left wakes one that sleeps, so no
  // response sits unread while its caller does.
  void AwaitWaiter(PipeConn& conn, std::uint64_t request_id, Waiter& w,
                   common::Nanos deadline_abs);
  // Become the connection's reader (conn.mu held on entry and exit; dropped
  // meanwhile): wait until the socket is readable or `wait_until` passes
  // (0 = do not wait), drain it with one recv sweep, then complete each
  // whole response frame's waiter by request id.  A framing violation fails
  // the connection with kCorruption, EOF or a socket error with
  // kUnavailable.
  void ReadReplies(std::unique_lock<std::mutex>& lock, PipeConn& conn,
                   common::Nanos wait_until);
  // Mark the connection dead, fail every registered waiter and shut the
  // socket down, which wakes a reader blocked in ppoll (conn.mu held).
  static void FailConnLocked(PipeConn& conn, ErrCode code);

  TcpChannelOptions options_;
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "tcp", "wall_ns"};
  // Waiters outstanding on the connection at each call issue (docs/METRICS.md).
  common::LatencyHistogram* pipeline_depth_;
  // Response frames a reader matched to a waiter (docs/METRICS.md).
  common::Counter* frames_ =
      &common::MetricsRegistry::Default().GetCounter("rpc.tcp.frames");
};

}  // namespace loco::net
