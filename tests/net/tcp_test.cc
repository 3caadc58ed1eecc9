// TcpServer + TcpChannel over real loopback sockets: roundtrips, connection
// pooling, deadlines, and every failure mode the client must surface cleanly
// (kUnavailable / kTimeout / kCorruption — never a hang).
#include "net/tcp.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/wire.h"

namespace loco::net {
namespace {

// Echoes the payload back; opcode 200 sleeps first (deadline tests); the
// request's trace id is observable through `last_trace_id` (set server-side
// only via the frame header — proves the id crossed the wire).
class EchoHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (opcode == 201) return RpcResponse{ErrCode::kNotFound, {}};
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }
};

RpcResponse BlockingCall(Channel& ch, NodeId node, std::uint16_t opcode,
                         std::string payload, CallMeta meta = {}) {
  RpcResponse out;
  ch.CallAsyncMeta(node, opcode, std::move(payload), meta,
                   [&out](RpcResponse r) { out = std::move(r); });
  return out;  // TcpChannel completes inline
}

std::vector<RpcResponse> BlockingFanOut(Channel& ch, std::vector<CallLeg> legs,
                                        CallMeta meta = {}) {
  std::vector<RpcResponse> out;
  ch.FanOutAsync(std::move(legs), meta,
                 [&out](std::vector<RpcResponse> r) { out = std::move(r); });
  return out;  // TcpChannel completes inline
}

TEST(ParseHostPortTest, AcceptsAndRejects) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(ParseHostPort("127.0.0.1:9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_TRUE(ParseHostPort("localhost:1", &host, &port));
  EXPECT_FALSE(ParseHostPort("no-port", &host, &port));
  EXPECT_FALSE(ParseHostPort(":9000", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:99999", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:12x", &host, &port));
}

TEST(TcpTest, RequestResponseRoundtrip) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "ping");
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "ping");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(TcpTest, StartRefusesFewerThanOneWorker) {
  EchoHandler handler;
  for (const int workers : {0, -1}) {
    TcpServer::Options options;
    options.workers = workers;
    TcpServer server(&handler, options);
    EXPECT_EQ(server.Start().code(), ErrCode::kInvalid) << workers;
    EXPECT_FALSE(server.running());
  }
}

TEST(TcpTest, ModeledServiceTimeIsNotSlept) {
  // extra_service_ns is the simulator's modeled device time; over real
  // sockets the reply goes out as soon as the handler returns.
  class ModeledHandler final : public RpcHandler {
   public:
    RpcResponse Handle(std::uint16_t, std::string_view payload) override {
      RpcResponse r{ErrCode::kOk, std::string(payload)};
      r.extra_service_ns = common::kSecond;
      return r;
    }
  };
  ModeledHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const auto start = std::chrono::steady_clock::now();
  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "x");
  EXPECT_LT(elapsed.count(), 250) << "modeled time must not be slept";
}

TEST(TcpTest, ErrorCodeCrossesTheWire) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(channel, 1, 201, "");
  EXPECT_EQ(r.code, ErrCode::kNotFound);
}

TEST(TcpTest, ManySequentialCallsReuseTheConnection) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  for (int i = 0; i < 50; ++i) {
    const std::string payload = "call-" + std::to_string(i);
    const RpcResponse r = BlockingCall(channel, 1, 7, payload);
    ASSERT_EQ(r.code, ErrCode::kOk);
    ASSERT_EQ(r.payload, payload);
  }
  EXPECT_EQ(server.requests_served(), 50u);
}

TEST(TcpTest, ConcurrentCallersGetTheirOwnSockets) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&channel, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const RpcResponse r = BlockingCall(channel, 1, 7, payload);
        if (r.code != ErrCode::kOk || r.payload != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 100u);
}

TEST(TcpTest, UnregisteredNodeIsUnavailable) {
  TcpChannel channel;
  const RpcResponse r = BlockingCall(channel, 42, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, DeadServerFailsFastWithUnavailable) {
  // Bind-then-close to obtain a port nobody listens on.
  EchoHandler handler;
  std::uint16_t dead_port = 0;
  {
    TcpServer server(&handler);
    ASSERT_TRUE(server.Start().ok());
    dead_port = server.port();
  }

  TcpChannel channel;
  channel.Register(1, "127.0.0.1", dead_port);

  const common::CpuTimer timer;
  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
  // The channel makes one connect attempt: a refused connect (ECONNREFUSED)
  // fails the call at once, with no backoff and no deadline wait.
  EXPECT_LT(timer.ElapsedNanos(), 2 * common::kSecond);
}

TEST(TcpTest, DeadlineExceededIsTimeout) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  CallMeta meta;
  meta.deadline_ns = 20 * common::kMilli;  // handler sleeps 200 ms
  const RpcResponse r = BlockingCall(channel, 1, 200, "slow", meta);
  EXPECT_EQ(r.code, ErrCode::kTimeout);
}

TEST(TcpTest, StoppedServerYieldsUnavailable) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  server.Stop();
  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, PooledConnectionSurvivesServerRestartViaRetry) {
  // A pooled socket the (old) server closed must be retried on a fresh
  // connection transparently, not surfaced as an error.
  EchoHandler handler;
  auto server = std::make_unique<TcpServer>(&handler);
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->port();

  TcpChannel channel;
  channel.Register(1, "127.0.0.1", port);
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  server->Stop();
  TcpServer::Options opts;
  opts.port = port;
  auto restarted = std::make_unique<TcpServer>(&handler, opts);
  ASSERT_TRUE(restarted->Start().ok());

  const RpcResponse r = BlockingCall(channel, 1, 7, "after-restart");
  EXPECT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, "after-restart");
}

// A raw TCP server that writes `reply` to every connection, then closes it.
class RawResponder {
 public:
  explicit RawResponder(std::string reply) : reply_(std::move(reply)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
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
        char buf[4096];
        // Read the request (best-effort) so the client's send completes.
        (void)::recv(conn, buf, sizeof(buf), 0);
        if (!reply_.empty()) {
          (void)::send(conn, reply_.data(), reply_.size(), MSG_NOSIGNAL);
        }
        ::close(conn);
      }
    });
  }
  ~RawResponder() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string reply_;
  std::thread thread_;
};

TEST(TcpTest, GarbageResponseIsCorruption) {
  RawResponder responder(std::string(64, 'Z'));  // wrong magic
  // Anonymous (client_id 0), so no hello: the responder reads exactly one
  // blob and answers it, and a fire-and-forget hello would race the request
  // for that single read (the responder could reply-and-close before the
  // request send completes, surfacing kUnavailable instead of the decode
  // verdict under test).
  TcpChannel channel;
  channel.Register(1, "127.0.0.1", responder.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kCorruption);
}

TEST(TcpTest, MidStreamDisconnectIsUnavailable) {
  // Server sends half a valid response frame, then closes.
  wire::FrameHeader h;
  h.type = wire::FrameType::kResponse;
  h.opcode = 7;
  h.request_id = 1;
  const std::string full = wire::EncodeFrame(h, "truncated-payload");
  RawResponder responder(full.substr(0, full.size() / 2));

  TcpChannel channel;
  channel.Register(1, "127.0.0.1", responder.port());

  const RpcResponse r = BlockingCall(channel, 1, 7, "x");
  EXPECT_EQ(r.code, ErrCode::kUnavailable);
}

TEST(TcpTest, ServerDropsCorruptClientStream) {
  // A client that sends garbage gets disconnected; the server keeps serving
  // well-formed clients afterwards.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string garbage(64, 'G');
    ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
    // The server closes the connection; recv sees EOF rather than hanging.
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);
  }

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  EXPECT_EQ(BlockingCall(channel, 1, 7, "still-alive").code, ErrCode::kOk);
}

TEST(TcpTest, OversizedRequestPayloadRejectedClientSide) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const RpcResponse r = BlockingCall(
      channel, 1, 7, std::string(std::size_t{wire::kMaxPayloadBytes} + 1, 'x'));
  EXPECT_EQ(r.code, ErrCode::kInvalid);
}

TEST(TcpTest, LargePayloadSpansArenaChunks) {
  // A payload many arena chunks long arrives over many recv() calls on both
  // sides (server loop and the reading caller) and must reassemble
  // byte-exactly in the pinned readers.
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  std::string big(512 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 23));
  }
  const RpcResponse r = BlockingCall(channel, 1, 7, big);
  ASSERT_EQ(r.code, ErrCode::kOk);
  EXPECT_EQ(r.payload, big);
}

// A loopback connect() to a dead port inside the ephemeral range can hit
// TCP simultaneous open and connect the socket to itself; every request
// would then echo back as a valid frame of type kRequest with a matching
// id.  The channel must detect and reject such sockets (this reproduced as
// a rare kCorruption from calls to a killed daemon).  Forcing the source
// port with bind() makes the self-connect deterministic.
TEST(TcpTest, SelfConnectedSocketIsDetected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  // Connect to our own bound address: no listener, yet the connect succeeds
  // by self-connecting (the scenario the channel must reject).
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_TRUE(IsSelfConnected(fd));
  ::close(fd);
}

TEST(TcpTest, NormalConnectionIsNotSelfConnected) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_FALSE(IsSelfConnected(fd));
  ::close(fd);
}

TEST(TcpTest, RpcMetricsRecorded) {
  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t client_before = registry.CounterValue("rpc.tcp.DmsMkdir.calls");
  const std::uint64_t server_before =
      registry.CounterValue("rpc.tcp_server.DmsMkdir.calls");

  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, /*DmsMkdir*/ 1, "m").code, ErrCode::kOk);

  EXPECT_EQ(registry.CounterValue("rpc.tcp.DmsMkdir.calls"), client_before + 1);
  EXPECT_EQ(registry.CounterValue("rpc.tcp_server.DmsMkdir.calls"),
            server_before + 1);
}

// ---------------------------------------------------------------------------
// Worker-pool dispatch + channel pipelining.
// ---------------------------------------------------------------------------

// Records the order handlers *finish* in (proves out-of-order execution on
// the pool) while staying thread-safe.  Opcode 50 sleeps 80 ms; opcode 51
// returns immediately.
class RecordingHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    {
      std::scoped_lock lock(mu_);
      finished_.emplace_back(payload);
    }
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }

  std::vector<std::string> finished() const {
    std::scoped_lock lock(mu_);
    return finished_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> finished_;
};

TEST(TcpWorkerPoolTest, ConcurrentClientStormAllCallsSucceed) {
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 4;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.workers(), 4);

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&channel, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const RpcResponse r = BlockingCall(channel, 1, 7, payload);
        if (r.code != ErrCode::kOk || r.payload != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 200u);
}

TEST(TcpWorkerPoolTest, PipelinedBurstExecutesOutOfOrderYetCorrelates) {
  RecordingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  // The slow call is issued first; with two workers the fast one finishes
  // while it sleeps, yet each response must land on its own request id.
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, 50, "slow"}, {1, 51, "fast"}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[0].payload, "slow");
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "fast");

  const std::vector<std::string> order = handler.finished();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast") << "fast call should overtake the slow one";
  EXPECT_EQ(order[1], "slow");
}

TEST(TcpWorkerPoolTest, PipelinedBurstOnDefaultServerStillCorrelates) {
  // The default server has one worker, and the loop may run a lone warm
  // echo itself, so replies can leave out of request order; every reply,
  // whichever thread ran its request, lands on its own leg.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.workers(), 1);
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  std::vector<CallLeg> legs;
  for (int i = 0; i < 16; ++i) legs.push_back({1, 7, "p" + std::to_string(i)});
  const std::vector<RpcResponse> rs = BlockingFanOut(channel, legs);
  ASSERT_EQ(rs.size(), legs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].code, ErrCode::kOk);
    EXPECT_EQ(rs[i].payload, legs[i].payload);
  }
  EXPECT_EQ(server.requests_served(), legs.size());
}

TEST(TcpWorkerPoolTest, TimeoutThenLateResponseIsDiscardedNotCorruption) {
  EchoHandler handler;  // opcode 200 sleeps 200 ms
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);

  CallMeta meta;
  meta.deadline_ns = 20 * common::kMilli;
  EXPECT_EQ(BlockingCall(channel, 1, 200, "slow", meta).code, ErrCode::kTimeout);

  // The timed-out request's response arrives later on the pooled connection;
  // the channel must discard it by request id, not fail the next call.
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "after-" + std::to_string(i);
    const RpcResponse r = BlockingCall(channel, 1, 7, payload);
    ASSERT_EQ(r.code, ErrCode::kOk) << "call " << i;
    ASSERT_EQ(r.payload, payload);
  }
}

TEST(TcpWorkerPoolTest, SlowHandlersOverlapAcrossWorkers) {
  // Two concurrent calls to a 60 ms handler run on two workers at once.
  class SlowHandler final : public RpcHandler {
   public:
    RpcResponse Handle(std::uint16_t, std::string_view payload) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      return RpcResponse{ErrCode::kOk, std::string(payload)};
    }
  };
  SlowHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const auto start = std::chrono::steady_clock::now();
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, 7, "a"}, {1, 7, "b"}});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_GE(elapsed.count(), 55) << "the handler's own time must be paid";
  EXPECT_LT(elapsed.count(), 115) << "handlers should overlap, not serialize";
}

TEST(TcpWorkerPoolTest, WorkerGaugesLiveAndRetired) {
  auto& registry = common::MetricsRegistry::Default();
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 3;
  {
    TcpServer server(&handler, options);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(registry.GaugeValue("rpc.tcp_server.workers"), 3.0);
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.queue_depth"));
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.worker0.busy"));
    EXPECT_TRUE(registry.HasGauge("rpc.tcp_server.worker2.busy"));
    server.Stop();
  }
  // After Stop the gauges retire their final value into the exposition, so
  // a --metrics-out dump records how many workers the server ran with.
  EXPECT_EQ(registry.RetiredGaugeValue("rpc.tcp_server.workers"), 3.0);
}

// ---------------------------------------------------------------------------
// Loop runs: a lone cheap request is served by the event loop itself.
// ---------------------------------------------------------------------------

// Polls `pred` until it holds or `limit` passes.
bool Eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Calls an echoing opcode until the server runs one on its loop (the
// opcode's last run must have been cheap and a worker idle); false if none
// did.  Every call carries a fresh trace id, so a tracked opcode executes
// each time rather than replaying.
bool WarmUntilLoopRun(Channel& ch, const TcpServer& server,
                      std::uint16_t opcode = 7) {
  const std::uint64_t before = server.loop_runs();
  for (int i = 0; i < 50 && server.loop_runs() == before; ++i) {
    const RpcResponse r = BlockingCall(ch, 1, opcode, "warm");
    EXPECT_EQ(r.code, ErrCode::kOk);
    EXPECT_EQ(r.payload, "warm");
  }
  return server.loop_runs() > before;
}

// Echoes; opcode 50 sleeps 1 ms (never cheap); opcode 60 parks its thread
// until Open() has been called once per parked call, and opcode 61 does the
// same for a "park" payload only (it is cheap otherwise).
class ParkingHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == 50) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (opcode == 60 || (opcode == 61 && payload == "park")) {
      std::unique_lock lock(mu_);
      const int ticket = ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return opened_ >= ticket; });
    }
    echoes_.fetch_add(1);
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }
  bool WaitParked(int n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return parked_ >= n; });
  }
  void Open() {
    {
      std::scoped_lock lock(mu_);
      ++opened_;
    }
    cv_.notify_all();
  }
  int echoes() const { return echoes_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  int opened_ = 0;
  std::atomic<int> echoes_{0};
};

TEST(TcpWorkerPoolTest, WarmCheapOpcodeRunsOnTheLoop) {
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  common::Counter& metric =
      common::MetricsRegistry::Default().GetCounter("rpc.tcp_server.loop_runs");
  const std::uint64_t metric_before = metric.value();

  EXPECT_TRUE(WarmUntilLoopRun(channel, server));
  EXPECT_GE(metric.value() - metric_before, server.loop_runs());
}

TEST(TcpWorkerPoolTest, FirstCallAndSlowOpcodeGoToAWorker) {
  ParkingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  // No history: the first call of an opcode goes to a worker.
  EXPECT_EQ(BlockingCall(channel, 1, 7, "first").code, ErrCode::kOk);
  EXPECT_EQ(server.loop_runs(), 0u);
  // Opcode 50's last run took at least 1 ms: it keeps going to workers.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(BlockingCall(channel, 1, 50, "slow").code, ErrCode::kOk);
  }
  EXPECT_EQ(server.loop_runs(), 0u);
  EXPECT_EQ(server.requests_served(), 4u);
  // The same server does run the cheap echo on its loop.
  EXPECT_TRUE(WarmUntilLoopRun(channel, server));
}

TEST(TcpWorkerPoolTest, WarmTrackedMutationRunsOnTheLoop) {
  // Opcode 8 is cheap and the dedup window tracks it: once warm it is
  // served on the loop like a read, claimed and completed in the window
  // there, and every call executes (distinct trace ids never replay).
  ParkingHandler handler;
  DedupWindow dedup({8});
  TcpServer::Options options;
  options.workers = 2;
  options.dedup = &dedup;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  EXPECT_TRUE(WarmUntilLoopRun(channel, server, 8));
  EXPECT_EQ(dedup.replays(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(handler.echoes()),
            server.requests_served());
}

TEST(TcpWorkerPoolTest, ReplayDoesNotMarkASlowOpcodeCheap) {
  // Opcode 50 is tracked and its handler sleeps 1 ms.  A replayed duplicate
  // costs a window lookup, not a handler run, so it must leave the opcode's
  // history alone: the next fresh request still goes to a worker.
  ParkingHandler handler;
  DedupWindow dedup({50});
  TcpServer::Options options;
  options.workers = 2;
  options.dedup = &dedup;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  for (int i = 0; i < 3; ++i) {
    CallMeta meta;
    meta.trace_id = 9000 + static_cast<std::uint64_t>(i);
    const std::string payload = "once-" + std::to_string(i);
    const int echoes_before = handler.echoes();
    const RpcResponse original = BlockingCall(channel, 1, 50, payload, meta);
    const RpcResponse replay = BlockingCall(channel, 1, 50, payload, meta);
    EXPECT_EQ(original.code, ErrCode::kOk);
    EXPECT_EQ(replay.code, ErrCode::kOk);
    EXPECT_EQ(replay.payload, original.payload);
    EXPECT_EQ(handler.echoes(), echoes_before + 1) << "the duplicate re-ran";
    EXPECT_EQ(dedup.replays(), static_cast<std::uint64_t>(i) + 1);
    // A fresh lone request of the opcode right after the replay.
    EXPECT_EQ(BlockingCall(channel, 1, 50, "fresh-" + std::to_string(i)).code,
              ErrCode::kOk);
  }
  EXPECT_EQ(server.loop_runs(), 0u);
}

TEST(TcpWorkerPoolTest, DelayedLoneRequestNeverRunsOnTheLoop) {
  // Every frame is stalled 250 ms before service.  The stall is outside the
  // handler's timer, so the echo's history stays cheap, yet a delayed
  // request must sleep on a worker: the loop keeps answering meanwhile.
  auto spec = FaultSpec::Parse("delay=1.0,delay_ms=250");
  ASSERT_TRUE(spec.ok());
  FaultInjector fault(*spec);
  EchoHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  options.fault = &fault;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel, probe;
  channel.Register(1, server.host(), server.port());
  probe.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);
  ASSERT_EQ(BlockingCall(probe, 1, wire::kCtlLoadStatus, {}).code,
            ErrCode::kOk);

  common::Counter& delays =
      common::MetricsRegistry::Default().GetCounter("faults.injected.delay");
  const std::uint64_t delays_before = delays.value();
  std::atomic<bool> done{false};
  RpcResponse delayed;
  std::thread caller([&] {
    delayed = BlockingCall(channel, 1, 7, "delayed");
    done.store(true);
  });
  EXPECT_TRUE(Eventually([&] { return delays.value() > delays_before; }));
  // The request is decoded and stalling: a probe on another connection is
  // answered before it finishes.
  EXPECT_EQ(BlockingCall(probe, 1, wire::kCtlLoadStatus, {}).code,
            ErrCode::kOk);
  EXPECT_FALSE(done.load()) << "the loop was stalled by the delayed request";
  caller.join();
  EXPECT_EQ(delayed.code, ErrCode::kOk);
  EXPECT_EQ(delayed.payload, "delayed");
  EXPECT_EQ(server.loop_runs(), 0u);
}

// Raw-socket helpers: one request frame out, one response frame in.
int DialServer(const TcpServer& server) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  struct timeval tv{10, 0};  // a missing reply fails the test, never hangs it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void SendRequest(int fd, std::uint16_t opcode, std::uint64_t request_id,
                 std::string_view payload) {
  wire::FrameHeader h;
  h.opcode = opcode;
  h.request_id = request_id;
  const std::string bytes = wire::EncodeFrame(h, payload);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

std::optional<wire::PinnedFrame> ReadResponse(int fd,
                                              wire::PinnedFrameReader& reader) {
  for (;;) {
    if (auto frame = reader.Next()) return frame;
    std::size_t capacity = 0;
    char* dst = reader.RecvInto(wire::kMinRecvWindow, &capacity);
    const ssize_t n = ::recv(fd, dst, capacity, 0);
    if (n <= 0) return std::nullopt;
    reader.Commit(static_cast<std::size_t>(n));
  }
}

TEST(TcpWorkerPoolTest, LoopRunReplyOvertakesAParkedWorkerReply) {
  // One connection: a request parked on a worker, then a cheap echo the
  // loop runs while it is parked.  A reply leaves as soon as it exists, so
  // the echo's arrives while the parked request is still parked; the client
  // tells them apart by request id.  If the echo's history happens to be
  // slow it goes to the idle worker instead, whose reply must not wait
  // either; the scenario repeats until the loop did run the echo.
  ParkingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_TRUE(WarmUntilLoopRun(channel, server));

  const int fd = DialServer(server);
  wire::PinnedFrameReader reader;
  bool looped = false;
  std::uint64_t id = 0;
  for (int round = 1; round <= 5 && !looped; ++round) {
    const std::uint64_t parked_id = ++id;
    const std::uint64_t echo_id = ++id;
    SendRequest(fd, 60, parked_id, "parked");
    ASSERT_TRUE(handler.WaitParked(round));
    const std::uint64_t loop_before = server.loop_runs();
    SendRequest(fd, 7, echo_id, "echo");
    const std::optional<wire::PinnedFrame> echo = ReadResponse(fd, reader);
    // A loop run is counted before its reply leaves.
    looped = server.loop_runs() > loop_before;
    handler.Open();  // first, so a failed assertion cannot strand a worker
    ASSERT_TRUE(echo.has_value())
        << "the echo's reply waited for the parked request's";
    EXPECT_EQ(echo->header.request_id, echo_id);
    EXPECT_EQ(echo->payload, "echo");
    const std::optional<wire::PinnedFrame> parked = ReadResponse(fd, reader);
    ASSERT_TRUE(parked.has_value());
    EXPECT_EQ(parked->header.request_id, parked_id);
    EXPECT_EQ(parked->payload, "parked");
  }
  EXPECT_TRUE(looped) << "the loop never ran the echo";
  ::close(fd);
}

TEST(TcpWorkerPoolTest, DuplicateOfARunningRequestNeverStallsTheLoop) {
  // A duplicate reaches the loop as a lone request of a warm tracked opcode
  // while its original is parked on a worker.  Waiting in the dedup window
  // there would stall every connection until the original finished; the
  // loop hands the duplicate to a worker instead, which waits and replays.
  ParkingHandler handler;
  DedupWindow dedup({61});
  TcpServer::Options options;
  options.workers = 2;
  options.dedup = &dedup;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel, probe;
  channel.Register(1, server.host(), server.port());
  probe.Register(1, server.host(), server.port());
  ASSERT_TRUE(WarmUntilLoopRun(channel, server, 61));
  ASSERT_EQ(BlockingCall(probe, 1, wire::kCtlLoadStatus, {}).code,
            ErrCode::kOk);

  // The original goes to a worker: sent in one write with a second request,
  // so the round admits two and wakes a worker for each.
  wire::FrameHeader original;
  original.opcode = 61;
  original.request_id = 1;
  original.trace_id = 4242;
  wire::FrameHeader second;
  second.opcode = 7;
  second.request_id = 2;
  const std::string burst = wire::EncodeFrame(original, "park") +
                            wire::EncodeFrame(second, "second");
  const int echoes_before = handler.echoes();
  const int original_fd = DialServer(server);
  ASSERT_EQ(::send(original_fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  ASSERT_TRUE(handler.WaitParked(1));
  ASSERT_TRUE(Eventually([&] { return handler.echoes() > echoes_before; }));
  // Let the second request's worker park again, so the duplicate finds the
  // loop-run conditions (a worker idle, nothing queued).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The duplicate, alone on its own connection (a retry's fresh socket).
  const std::uint64_t loop_before = server.loop_runs();
  wire::FrameHeader dup = original;
  dup.request_id = 3;
  const std::string dup_bytes = wire::EncodeFrame(dup, "park");
  const int retry_fd = DialServer(server);
  ASSERT_EQ(::send(retry_fd, dup_bytes.data(), dup_bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(dup_bytes.size()));

  // A worker takes it and waits in the window: both workers are busy.
  auto& registry = common::MetricsRegistry::Default();
  EXPECT_TRUE(Eventually(
      [&] {
        return registry.GaugeValue("rpc.tcp_server.worker0.busy") +
                   registry.GaugeValue("rpc.tcp_server.worker1.busy") ==
               2.0;
      },
      std::chrono::seconds(2)))
      << "no worker took the duplicate";
  // The loop is not waiting: a probe on another connection is answered
  // while the original is still parked.
  CallMeta meta;
  meta.deadline_ns = 2 * common::kSecond;
  EXPECT_EQ(BlockingCall(probe, 1, wire::kCtlLoadStatus, {}, meta).code,
            ErrCode::kOk)
      << "the loop stalled behind the parked original";

  handler.Open();
  wire::PinnedFrameReader original_reader, retry_reader;
  // The second request's reply left while the original was parked.
  const std::optional<wire::PinnedFrame> second_reply =
      ReadResponse(original_fd, original_reader);
  const std::optional<wire::PinnedFrame> first =
      ReadResponse(original_fd, original_reader);
  const std::optional<wire::PinnedFrame> replayed =
      ReadResponse(retry_fd, retry_reader);
  ASSERT_TRUE(second_reply.has_value());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(second_reply->header.request_id, 2u);
  EXPECT_EQ(first->header.request_id, 1u);
  EXPECT_EQ(replayed->header.request_id, 3u);
  EXPECT_EQ(replayed->header.code, first->header.code);
  EXPECT_EQ(replayed->payload, first->payload);
  EXPECT_EQ(first->payload, "park");
  // The handler ran the original once (plus the second request); the
  // duplicate was a replay, served by a worker.
  EXPECT_EQ(handler.echoes(), echoes_before + 2);
  EXPECT_EQ(dedup.replays(), 1u);
  EXPECT_EQ(server.loop_runs(), loop_before);
  ::close(original_fd);
  ::close(retry_fd);
}

// ---------------------------------------------------------------------------
// Receive path: the callers waiting on a connection read it themselves.
// ---------------------------------------------------------------------------

// Echoes after sleeping the number of milliseconds its payload names.
class SleepingHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t, std::string_view payload) override {
    int ms = 0;
    std::from_chars(payload.data(), payload.data() + payload.size(), ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }
};

// Threads of this process, as /proc/self/task lists them.
std::ptrdiff_t ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(TcpWorkerPoolTest, ReaderHandsTheSocketToAParkedCaller) {
  // A reads the one pooled connection while B, whose reply comes later,
  // sleeps on its own cv.  A leaves with its reply and must hand the socket
  // to B, or B's reply sits unread until B's 5 s deadline.  Opcode 9 has no
  // history, so both calls run on workers at once.
  SleepingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "0").code, ErrCode::kOk);

  RpcResponse a;
  std::thread first([&] { a = BlockingCall(channel, 1, 9, "30"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const common::CpuTimer timer;
  const RpcResponse b = BlockingCall(channel, 1, 9, "120");
  const common::Nanos b_ns = timer.ElapsedNanos();
  first.join();
  EXPECT_EQ(a.code, ErrCode::kOk);
  EXPECT_EQ(a.payload, "30");
  EXPECT_EQ(b.code, ErrCode::kOk);
  EXPECT_EQ(b.payload, "120");
  EXPECT_LT(b_ns, 2 * common::kSecond) << "B slept while its reply sat unread";
}

TEST(TcpWorkerPoolTest, TimedOutReaderHandsTheSocketOver) {
  // Same, but the reader leaves on its deadline: A gives up after 20 ms and
  // must hand the socket to B.  A's reply lands later on the idle
  // connection; the next call reads it, drops it and gets its own.
  SleepingHandler handler;
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "0").code, ErrCode::kOk);

  RpcResponse a;
  std::thread first([&] {
    CallMeta meta;
    meta.deadline_ns = 20 * common::kMilli;
    a = BlockingCall(channel, 1, 9, "200", meta);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const common::CpuTimer timer;
  const RpcResponse b = BlockingCall(channel, 1, 9, "80");
  const common::Nanos b_ns = timer.ElapsedNanos();
  first.join();
  EXPECT_EQ(a.code, ErrCode::kTimeout);
  EXPECT_EQ(b.code, ErrCode::kOk);
  EXPECT_EQ(b.payload, "80");
  EXPECT_LT(b_ns, 2 * common::kSecond) << "B slept while its reply sat unread";

  EXPECT_TRUE(Eventually([&] { return server.requests_served() == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const RpcResponse third = BlockingCall(channel, 1, 7, "third");
  EXPECT_EQ(third.code, ErrCode::kOk);
  EXPECT_EQ(third.payload, "third");
}

TEST(TcpTest, ChannelStartsNoThread) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  const std::ptrdiff_t before = ThreadCount();
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  EXPECT_EQ(BlockingCall(channel, 1, 7, "one").code, ErrCode::kOk);
  EXPECT_EQ(BlockingFanOut(channel, {{1, 7, "two"}, {1, 7, "three"}}).size(),
            2u);
  // A joined thread of an earlier test in the same process may still be
  // leaving /proc/self/task: the count may fall, but must not rise.
  EXPECT_LE(ThreadCount(), before);
}

// ---------------------------------------------------------------------------
// Fan-out: every leg is on the wire before any is awaited.
// ---------------------------------------------------------------------------

// Shared by two servers' handlers: each marks its leg's arrival, then waits
// (up to 5 s) for the other server's leg before answering.
class RendezvousHandler final : public RpcHandler {
 public:
  struct Meeting {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
  };
  explicit RendezvousHandler(Meeting* meeting) : meeting_(meeting) {}

  RpcResponse Handle(std::uint16_t, std::string_view payload) override {
    if (payload == "warm") return RpcResponse{ErrCode::kOk, std::string(payload)};
    std::unique_lock lock(meeting_->mu);
    ++meeting_->arrived;
    meeting_->cv.notify_all();
    const bool met = meeting_->cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return meeting_->arrived >= 2;
    });
    if (!met) return RpcResponse{ErrCode::kTimeout, {}};
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }

 private:
  Meeting* meeting_;
};

TEST(TcpFanOutTest, LegsToTwoServersOverlap) {
  // Neither server answers until both have received their leg, so the
  // fan-out succeeds only if both legs were sent before either was awaited.
  RendezvousHandler::Meeting meeting;
  RendezvousHandler handler(&meeting);
  TcpServer a(&handler), b(&handler);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  TcpChannel channel;
  channel.Register(1, a.host(), a.port());
  channel.Register(2, b.host(), b.port());

  CallMeta meta;
  meta.deadline_ns = 20 * common::kSecond;  // the handlers give up first
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, 7, "to-a"}, {2, 7, "to-b"}}, meta);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[0].payload, "to-a");
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "to-b");
}

TEST(TcpFanOutTest, BurstToOneServerGetsTwoWorkers) {
  // Both legs are of a warm, cheap opcode, but they arrive in one loop round,
  // so each gets a worker: the loop runs neither, and the handlers, each
  // waiting (up to 5 s) for the other, meet.
  RendezvousHandler::Meeting meeting;
  RendezvousHandler handler(&meeting);
  TcpServer::Options options;
  options.workers = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  ASSERT_TRUE(WarmUntilLoopRun(channel, server));
  const std::uint64_t loop_before = server.loop_runs();

  CallMeta meta;
  meta.deadline_ns = 20 * common::kSecond;  // the handlers give up first
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, 7, "leg-a"}, {1, 7, "leg-b"}}, meta);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[0].payload, "leg-a");
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "leg-b");
  EXPECT_EQ(server.loop_runs(), loop_before);
}

// A hand-rolled frame server with one thread per connection: it echoes each
// request's payload, holds requests until `burst` of them (counted across
// connections) have arrived, then answers those together, last arrival
// first, each on its own connection.  It closes the connection instead of
// answering request number `close_at` (counted across connections from 1;
// 0 = never).  Talk to it with an anonymous channel (client_id 0, so no
// hello): it does not speak the hello.
class FramedResponder {
 public:
  FramedResponder(std::size_t burst, std::uint64_t close_at)
      : burst_(burst), close_at_(close_at) {
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
    acceptor_ = std::thread([this] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        std::scoped_lock lock(mu_);
        conns_.push_back(conn);
        servers_.emplace_back([this, conn] { Serve(conn); });
      }
    });
  }
  ~FramedResponder() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    // No connection is accepted any more: conns_ and servers_ stay as is.
    for (const int conn : conns_) ::shutdown(conn, SHUT_RDWR);
    for (std::thread& server : servers_) server.join();
    for (const int conn : conns_) ::close(conn);
  }
  std::uint16_t port() const { return port_; }
  int connections() const {
    std::scoped_lock lock(mu_);
    return static_cast<int>(conns_.size());
  }
  std::uint64_t requests() const {
    std::scoped_lock lock(mu_);
    return requests_;
  }

 private:
  struct Held {
    int conn;
    wire::PinnedFrame frame;
  };

  void Serve(int conn) {
    wire::PinnedFrameReader reader;
    for (;;) {
      std::size_t capacity = 0;
      char* dst = reader.RecvInto(wire::kMinRecvWindow, &capacity);
      const ssize_t n = ::recv(conn, dst, capacity, 0);
      if (n <= 0) return;
      reader.Commit(static_cast<std::size_t>(n));
      while (auto frame = reader.Next()) {
        std::scoped_lock lock(mu_);
        if (++requests_ == close_at_) {
          ::shutdown(conn, SHUT_RDWR);
          return;
        }
        held_.push_back(Held{conn, std::move(*frame)});
        if (held_.size() < burst_) continue;
        for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
          wire::FrameHeader h = it->frame.header;
          h.type = wire::FrameType::kResponse;
          h.code = ErrCode::kOk;
          const std::string out = wire::EncodeFrame(h, it->frame.payload);
          (void)::send(it->conn, out.data(), out.size(), MSG_NOSIGNAL);
        }
        held_.clear();
      }
    }
  }

  const std::size_t burst_;
  const std::uint64_t close_at_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::vector<int> conns_;
  std::vector<std::thread> servers_;
  std::vector<Held> held_;
  std::uint64_t requests_ = 0;
  std::thread acceptor_;
};

TEST(TcpTest, DisconnectAllLetsInFlightCallsFinish) {
  // DisconnectAll drops only the pool's references: a call in flight keeps
  // its connection and reads its own reply, and the next call dials a new
  // one.  The responder holds the first request until a second arrives on
  // any connection, so the held call finishes only once the next call's
  // request is in; the responder's connection count shows where it came.
  FramedResponder responder(/*burst=*/2, /*close_at=*/0);
  TcpChannel channel;
  channel.Register(1, "127.0.0.1", responder.port());

  RpcResponse held;
  std::thread caller([&] { held = BlockingCall(channel, 1, 7, "held"); });
  EXPECT_TRUE(Eventually([&] { return responder.requests() == 1; }));
  channel.DisconnectAll();
  const RpcResponse next = BlockingCall(channel, 1, 7, "next");
  caller.join();
  EXPECT_EQ(next.code, ErrCode::kOk);
  EXPECT_EQ(next.payload, "next");
  EXPECT_EQ(held.code, ErrCode::kOk);
  EXPECT_EQ(held.payload, "held");
  EXPECT_EQ(responder.connections(), 2)
      << "the next call rode the old connection";
}

TEST(TcpFanOutTest, LegsToOneServerShareOneConnectionAndCorrelate) {
  FramedResponder responder(/*burst=*/8, /*close_at=*/0);
  TcpChannel channel;
  channel.Register(1, "127.0.0.1", responder.port());

  // The responder answers only once all eight legs arrived, last one first:
  // every leg must have shared one burst, and each response must land on
  // its own leg by request id.
  std::vector<CallLeg> legs;
  for (int i = 0; i < 8; ++i) legs.push_back({1, 7, "leg" + std::to_string(i)});
  const std::vector<RpcResponse> rs = BlockingFanOut(channel, legs);
  ASSERT_EQ(rs.size(), legs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].code, ErrCode::kOk) << i;
    EXPECT_EQ(rs[i].payload, legs[i].payload);
  }
  EXPECT_EQ(responder.connections(), 1);
}

TEST(TcpFanOutTest, StaleLegRetriedOnFreshConnectionSiblingKept) {
  // Server 2 closes its pooled connection on the fan-out's leg instead of
  // answering (request 2 there: request 1 was the warm-up).  That leg must
  // be retried once on a fresh connection, and server 1's leg, already
  // answered, must be neither lost nor sent again.
  EchoHandler handler;
  TcpServer one(&handler);
  ASSERT_TRUE(one.Start().ok());
  FramedResponder two(/*burst=*/1, /*close_at=*/2);
  TcpChannel channel;
  channel.Register(1, one.host(), one.port());
  channel.Register(2, "127.0.0.1", two.port());
  ASSERT_EQ(BlockingCall(channel, 1, 7, "warm").code, ErrCode::kOk);
  ASSERT_EQ(BlockingCall(channel, 2, 7, "warm").code, ErrCode::kOk);

  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, 7, "to-one"}, {2, 7, "to-two"}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kOk);
  EXPECT_EQ(rs[0].payload, "to-one");
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "to-two");
  EXPECT_EQ(one.requests_served(), 2u);
  EXPECT_EQ(two.connections(), 2);
  EXPECT_EQ(two.requests(), 3u);
}

TEST(TcpFanOutTest, UnknownServerFailsOnlyItsOwnLeg) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel;
  channel.Register(1, server.host(), server.port());

  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{9, 7, "nowhere"}, {1, 7, "here"}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].code, ErrCode::kUnavailable);
  EXPECT_EQ(rs[1].code, ErrCode::kOk);
  EXPECT_EQ(rs[1].payload, "here");
  EXPECT_TRUE(BlockingFanOut(channel, {}).empty());
}

}  // namespace
}  // namespace loco::net
