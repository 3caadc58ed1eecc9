// Notify-plane tests: event codecs, the hello (and redial with backoff when
// a server refuses it), sequence-gap resync, duplicate suppression,
// reconnect behaviour, and the notify fault hooks.
#include "net/notify.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/fault.h"
#include "net/tcp.h"

namespace loco::net {
namespace {

class NullHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t, std::string_view) override {
    return RpcResponse{ErrCode::kOk, {}};
  }
};

// Thread-safe event sink for listener callbacks.
class EventLog {
 public:
  void Add(const NotifyEvent& event) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  std::vector<NotifyEvent> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  std::size_t Count(NotifyEvent::Kind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& e : events_) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  // Poll until `pred` holds or ~5 s pass.
  bool Await(const std::function<bool()>& pred) const {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

 private:
  mutable std::mutex mu_;
  std::vector<NotifyEvent> events_;
};

TEST(NotifyCodecTest, InvalidateRoundTrip) {
  InvalidateEvent in;
  in.path = "/a/b";
  in.subtree = true;
  in.wall_ts_ns = 123456789;
  InvalidateEvent out;
  ASSERT_TRUE(DecodeInvalidate(EncodeInvalidate(in), &out).ok());
  EXPECT_EQ(out.path, "/a/b");
  EXPECT_TRUE(out.subtree);
  EXPECT_EQ(out.wall_ts_ns, 123456789u);

  EXPECT_EQ(DecodeInvalidate("garbage", &out).code(), ErrCode::kCorruption);
  EXPECT_EQ(DecodeInvalidate("", &out).code(), ErrCode::kCorruption);
}

TEST(NotifyCodecTest, ServerUpRoundTrip) {
  ServerUpEvent in;
  in.node = 7;
  in.epoch = 42;
  in.wall_ts_ns = 99;
  ServerUpEvent out;
  ASSERT_TRUE(DecodeServerUp(EncodeServerUp(in), &out).ok());
  EXPECT_EQ(out.node, 7u);
  EXPECT_EQ(out.epoch, 42u);
  EXPECT_EQ(out.wall_ts_ns, 99u);

  EXPECT_EQ(DecodeServerUp("xx", &out).code(), ErrCode::kCorruption);
}

NotifyListener::Options ListenerOptions(const TcpServer& server,
                                        std::uint64_t client_id) {
  NotifyListener::Options options;
  options.host = server.host();
  options.port = server.port();
  options.client_id = client_id;
  return options;
}

TEST(NotifyListenerTest, NegotiatesAndReceivesPushesInOrder) {
  NullHandler handler;
  TcpServer::Options server_options;
  server_options.epoch = 5;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start().ok());

  EventLog log;
  NotifyListener listener(ListenerOptions(server, 77),
                          [&log](const NotifyEvent& e) { log.Add(e); });
  ASSERT_TRUE(listener.Start().ok());
  ASSERT_TRUE(log.Await([&] { return listener.connected(); }));
  EXPECT_EQ(listener.epoch(), 5u);

  // Targeted pushes arrive in order; a push to an unknown client reports
  // false so the caller can drop its per-client state.
  InvalidateEvent inv;
  inv.path = "/dir";
  inv.wall_ts_ns = 1;
  EXPECT_TRUE(server.PushNotify(77, wire::kNotifyInvalidate,
                                EncodeInvalidate(inv)));
  inv.path = "/dir2";
  inv.subtree = true;
  EXPECT_TRUE(server.PushNotify(77, wire::kNotifyInvalidate,
                                EncodeInvalidate(inv)));
  EXPECT_FALSE(server.PushNotify(12345, wire::kNotifyInvalidate,
                                 EncodeInvalidate(inv)));

  ServerUpEvent up;
  up.node = 3;
  up.epoch = 9;
  EXPECT_EQ(server.BroadcastNotify(wire::kNotifyServerUp, EncodeServerUp(up)),
            1u);

  ASSERT_TRUE(log.Await([&] {
    return log.Count(NotifyEvent::Kind::kInvalidate) == 2 &&
           log.Count(NotifyEvent::Kind::kServerUp) == 1;
  }));
  const auto events = log.Snapshot();
  std::vector<std::string> paths;
  for (const auto& e : events) {
    if (e.kind == NotifyEvent::Kind::kInvalidate) paths.push_back(e.invalidate.path);
    if (e.kind == NotifyEvent::Kind::kServerUp) {
      EXPECT_EQ(e.server_up.node, 3u);
      EXPECT_EQ(e.server_up.epoch, 9u);
    }
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"/dir", "/dir2"}));
  // In-order stream: no gap was detected, so no resync after the first hello.
  EXPECT_EQ(log.Count(NotifyEvent::Kind::kResync), 0u);
}

// A stub server that answers every connection's first frame (the hello)
// with an error response and closes, recording when each connection came.
class RefusingHelloServer {
 public:
  RefusingHelloServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    thread_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        {
          std::lock_guard<std::mutex> lock(mu_);
          accepted_at_.push_back(std::chrono::steady_clock::now());
        }
        Refuse(conn);
        ::close(conn);
      }
    });
  }
  ~RefusingHelloServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  std::uint16_t port() const { return port_; }
  std::vector<std::chrono::steady_clock::time_point> accepted_at() const {
    std::lock_guard<std::mutex> lock(mu_);
    return accepted_at_;
  }
  int refused() const { return refused_.load(); }

 private:
  void Refuse(int conn) {
    struct timeval tv{5, 0};  // a missing hello fails the test, never hangs it
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    wire::PinnedFrameReader reader;
    for (;;) {
      if (auto hello = reader.Next()) {
        wire::FrameHeader h = hello->header;
        h.type = wire::FrameType::kResponse;
        h.code = ErrCode::kUnsupported;
        const std::string reply = wire::EncodeFrame(h, "");
        (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
        refused_.fetch_add(1);
        return;
      }
      std::size_t capacity = 0;
      char* dst = reader.RecvInto(wire::kMinRecvWindow, &capacity);
      const ssize_t n = ::recv(conn, dst, capacity, 0);
      if (n <= 0) return;
      reader.Commit(static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::vector<std::chrono::steady_clock::time_point> accepted_at_;
  std::atomic<int> refused_{0};
  std::thread thread_;
};

TEST(NotifyListenerTest, RefusedHelloRedialsWithBackoff) {
  // A refused hello is handled like a failed connect: close, back off,
  // redial.  The listener never reports a stream it does not have.
  RefusingHelloServer stub;
  NotifyListener::Options options;
  options.host = "127.0.0.1";
  options.port = stub.port();
  options.client_id = 42;
  EventLog log;
  NotifyListener listener(options,
                          [&log](const NotifyEvent& e) { log.Add(e); });
  ASSERT_TRUE(listener.Start().ok());
  bool ever_connected = false;
  ASSERT_TRUE(log.Await([&] {
    ever_connected = ever_connected || listener.connected();
    return stub.refused() >= 4;
  }));
  listener.Stop();
  EXPECT_FALSE(ever_connected);
  EXPECT_FALSE(listener.connected());
  EXPECT_TRUE(log.Snapshot().empty()) << "no stream, so no stream events";
  // Each failed cycle doubles the backoff from its base: the waits before
  // redials 2, 3 and 4 are at least 2, 4 and 8 times kBackoffBaseNs.
  const auto at = stub.accepted_at();
  ASSERT_GE(at.size(), 4u);
  EXPECT_GE(at[3] - at[0],
            std::chrono::nanoseconds(14 * NotifyListener::kBackoffBaseNs));
}

TEST(NotifyListenerTest, ReconnectAfterServerRestartForcesResync) {
  NullHandler handler;
  auto server = std::make_unique<TcpServer>(&handler);
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->port();

  EventLog log;
  NotifyListener::Options options;
  options.host = server->host();
  options.port = port;
  options.client_id = 9;
  NotifyListener listener(options,
                          [&log](const NotifyEvent& e) { log.Add(e); });
  ASSERT_TRUE(listener.Start().ok());
  ASSERT_TRUE(log.Await([&] { return listener.connected(); }));

  // Restart the server on the same port with a bumped epoch.
  server->Stop();
  TcpServer::Options restart_options;
  restart_options.port = port;
  restart_options.epoch = 2;
  server = std::make_unique<TcpServer>(&handler, restart_options);
  ASSERT_TRUE(server->Start().ok());

  // The listener reconnects and reports a resync (pushes may have been lost
  // while the stream was down), then resumes receiving pushes.
  ASSERT_TRUE(log.Await([&] {
    return log.Count(NotifyEvent::Kind::kResync) >= 1 && listener.connected();
  }));
  EXPECT_EQ(listener.epoch(), 2u);
  ASSERT_TRUE(log.Await([&] { return server->notify_sessions() == 1; }));
  InvalidateEvent inv;
  inv.path = "/after-restart";
  EXPECT_TRUE(server->PushNotify(9, wire::kNotifyInvalidate,
                                 EncodeInvalidate(inv)));
  ASSERT_TRUE(
      log.Await([&] { return log.Count(NotifyEvent::Kind::kInvalidate) >= 1; }));
}

TEST(NotifyFaultTest, SpecParsesNotifyKeys) {
  auto spec = FaultSpec::Parse("notify_drop=0.25,notify_dup=0.5,seed=3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->notify_drop, 0.25);
  EXPECT_DOUBLE_EQ(spec->notify_dup, 0.5);
  EXPECT_TRUE(spec->Armed());
  EXPECT_FALSE(FaultSpec::Parse("notify_drop=nope").ok());
  EXPECT_FALSE(FaultSpec::Parse("notify_dup=2.0").ok());
}

TEST(NotifyFaultTest, DroppedPushesForceResyncAndDupsAreSuppressed) {
  // Deterministic fault plane: with this seed some pushes are swallowed
  // (their sequence number is still consumed) and some are sent twice.  The
  // listener must (a) resync on every gap, (b) deliver each surviving push
  // exactly once, and (c) never crash or stall.
  auto spec = FaultSpec::Parse("notify_drop=0.3,notify_dup=0.3,seed=11");
  ASSERT_TRUE(spec.ok());
  FaultInjector fault(*spec);
  NullHandler handler;
  TcpServer::Options server_options;
  server_options.fault = &fault;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start().ok());

  EventLog log;
  NotifyListener listener(ListenerOptions(server, 5),
                          [&log](const NotifyEvent& e) { log.Add(e); });
  ASSERT_TRUE(listener.Start().ok());
  ASSERT_TRUE(log.Await([&] { return server.notify_sessions() == 1; }));

  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t drops_before =
      registry.CounterValue("faults.injected.notify_drop");
  const std::uint64_t dups_before =
      registry.CounterValue("faults.injected.notify_dup");
  const std::uint64_t pushed_before =
      registry.CounterValue("notify.server.pushed");

  constexpr int kPushes = 64;
  for (int i = 0; i < kPushes; ++i) {
    InvalidateEvent inv;
    inv.path = "/p" + std::to_string(i);
    ASSERT_TRUE(
        server.PushNotify(5, wire::kNotifyInvalidate, EncodeInvalidate(inv)));
  }
  // PushNotify only enqueues; the server loop rolls the fault dice as it
  // drains.  Wait until every push was either sent or swallowed before
  // reading the fault counters.
  ASSERT_TRUE(log.Await([&] {
    return (registry.CounterValue("notify.server.pushed") - pushed_before) +
               (registry.CounterValue("faults.injected.notify_drop") -
                drops_before) ==
           kPushes;
  }));
  const std::uint64_t dropped =
      registry.CounterValue("faults.injected.notify_drop") - drops_before;
  const std::uint64_t dupped =
      registry.CounterValue("faults.injected.notify_dup") - dups_before;
  ASSERT_GT(dropped, 0u) << "seed produced no drops; pick another";
  ASSERT_GT(dupped, 0u) << "seed produced no dups; pick another";

  // Every non-dropped push is delivered exactly once (duplicates suppressed
  // by the sequence check), and at least one gap triggered a resync.
  ASSERT_TRUE(log.Await([&] {
    return log.Count(NotifyEvent::Kind::kInvalidate) == kPushes - dropped;
  })) << log.Count(NotifyEvent::Kind::kInvalidate) << " of "
      << (kPushes - dropped);
  EXPECT_GE(log.Count(NotifyEvent::Kind::kResync), 1u);
}

}  // namespace
}  // namespace loco::net
