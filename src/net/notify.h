// Server→client push notification plane (docs/NET.md, docs/LEASES.md).
//
// A client that wants push notifications opens one *dedicated* connection
// to the server and performs the kCtlHello exchange with wire::kFeatureNotify
// set.  The server then streams wire::FrameType::kNotify frames on that
// connection: each carries a notify opcode (wire::kNotifyInvalidate /
// kNotifyServerUp), a per-connection sequence number in the request-id field
// (starting at 1), and an event payload.  The stream is ack-less: the client
// never confirms receipt.  Instead every frame is sequence-numbered and the
// client treats a gap — or any reconnect — as "I may have missed pushes" and
// resynchronizes by dropping its cached state (NotifyEvent::Kind::kResync).
// Losing the stream entirely is safe too: the lease timeout remains the
// correctness fallback, the push plane only shrinks the stale window.
//
//   server side: Notifier (implemented by net::TcpServer) — queue a push for
//                one client session or broadcast to all of them;
//   client side: NotifyListener — owns the dedicated connection + a reader
//                thread, decodes events, detects gaps/epoch bumps, and
//                redials with backoff whenever the connect or the hello
//                fails or the stream drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "common/clock.h"
#include "common/result.h"
#include "net/rpc.h"
#include "net/wire.h"

namespace loco::net {

// Capability to push notify frames to connected clients.  Implemented by
// net::TcpServer; servers hand it to their handler (the DMS) which calls it
// from worker threads — implementations must be thread-safe.
class Notifier {
 public:
  virtual ~Notifier() = default;

  // Queue one push for `client_id`'s notify session.  False when no such
  // session exists (client gone, or it never asked for notify) — callers
  // use that to garbage-collect per-client state such as lease watches.
  virtual bool PushNotify(std::uint64_t client_id, std::uint16_t opcode,
                          std::string payload) = 0;

  // Queue one push for every notify session; returns the session count.
  virtual std::size_t BroadcastNotify(std::uint16_t opcode,
                                      std::string payload) = 0;
};

// ---------------------------------------------------------------------------
// Event payloads (the bytes inside a kNotify frame)
// ---------------------------------------------------------------------------

// kNotifyInvalidate: a directory the client holds a lease on changed.
struct InvalidateEvent {
  std::string path;      // full path of the invalidated directory
  bool subtree = false;  // true: every cached entry under `path` is stale too
  // Sender's wall clock (common::WallClockNs) at push time; receivers on the
  // same host record now-wall_ts_ns as the end-to-end invalidation latency.
  std::uint64_t wall_ts_ns = 0;
};

std::string EncodeInvalidate(const InvalidateEvent& event);
Status DecodeInvalidate(std::string_view bytes, InvalidateEvent* out);

// kNotifyServerUp: a server process (re)started — breaker gossip.  The DMS
// broadcasts these when a daemon announces itself (core::proto::kDmsAnnounce)
// so clients reset the node's circuit breaker immediately instead of waiting
// out the half-open probe interval.
struct ServerUpEvent {
  NodeId node = 0;  // cluster node id (the client's channel registration)
  std::uint64_t epoch = 0;
  std::uint64_t wall_ts_ns = 0;
};

std::string EncodeServerUp(const ServerUpEvent& event);
Status DecodeServerUp(std::string_view bytes, ServerUpEvent* out);

// ---------------------------------------------------------------------------
// Client-side listener
// ---------------------------------------------------------------------------

// One decoded occurrence on the notify stream, delivered to the callback.
struct NotifyEvent {
  enum class Kind {
    kInvalidate,  // `invalidate` is set
    kServerUp,    // `server_up` is set
    kResync,      // missed pushes are possible (gap / reconnect / epoch bump):
                  // drop cached state and fall back to lease semantics
    kStreamDown,  // the stream just went down; leases are the only guard
                  // until the listener reconnects
  };
  Kind kind = Kind::kResync;
  InvalidateEvent invalidate;
  ServerUpEvent server_up;
};

class NotifyListener {
 public:
  struct Options {
    std::string host;
    std::uint16_t port = 0;
    std::uint64_t client_id = 0;  // must match the RPC channel's client id
  };

  // Reconnect backoff: doubles from base to cap while the server is down.
  static constexpr common::Nanos kBackoffBaseNs = 50 * common::kMilli;
  static constexpr common::Nanos kBackoffCapNs = 2 * common::kSecond;

  // Invoked on the listener's reader thread.  Must not block for long and
  // must not destroy the listener.
  using Callback = std::function<void(const NotifyEvent&)>;

  NotifyListener(Options options, Callback callback);
  ~NotifyListener();
  NotifyListener(const NotifyListener&) = delete;
  NotifyListener& operator=(const NotifyListener&) = delete;

  // Spawn the reader thread (connects in the background).  One Start per
  // instance.
  Status Start();
  // Close the stream and join the thread.  Idempotent; run by the destructor.
  void Stop();

  // True between a successful hello and the next stream failure.
  bool connected() const noexcept {
    return connected_.load(std::memory_order_acquire);
  }
  // Server epoch from the most recent hello (0 before the first).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  void Run();
  // One connect → hello → read-frames cycle.  A failed connect, a refused
  // hello and a dropped stream all just end the cycle; Run backs off and
  // redials until Stop.
  void RunOnce(bool* ever_connected, bool* connected_this_cycle);
  // Read one frame, waiting in a poll on the stream and the stop pipe;
  // false on stream failure or stop.  deadline_abs == 0 waits forever (the
  // stop pipe still interrupts it).
  bool RecvOne(int fd, wire::PinnedFrameReader* reader, wire::PinnedFrame* out,
               common::Nanos deadline_abs);
  void Emit(NotifyEvent::Kind kind);

  Options options_;
  Callback callback_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> epoch_{0};
  int stop_fds_[2] = {-1, -1};  // self-pipe: Stop() interrupts the read poll
};

}  // namespace loco::net
