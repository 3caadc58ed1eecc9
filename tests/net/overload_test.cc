// Overload-control semantics of TcpServer + TcpChannel (docs/OVERLOAD.md):
// bounded admission queues shed background before foreground, expired work
// is dropped at dequeue without ever executing, slow readers are stalled and
// then disconnected at the output cap, the queue_full fault forces shedding,
// and kCtlLoadStatus reports it all.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/metrics.h"
#include "net/fault.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace loco::net {
namespace {

constexpr std::uint16_t kEchoOp = 7;
constexpr std::uint16_t kGateOp = 100;
// Tiny request, a response one byte over the hard output cap.
constexpr std::uint16_t kBigOp = 101;
constexpr std::size_t kBigReplyBytes = 2 * TcpServer::kMaxConnOutputBytes + 1;

// Echoes payloads; kGateOp blocks inside the handler until Release() — with
// one worker that wedges the dispatch pool so everything behind it queues.
class GateHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    if (opcode == kBigOp) {
      return RpcResponse{ErrCode::kOk, std::string(kBigReplyBytes, 'b')};
    }
    if (opcode == kGateOp) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return RpcResponse{ErrCode::kOk, "gate"};
    }
    echoes_.fetch_add(1, std::memory_order_relaxed);
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int echoes() const noexcept {
    return echoes_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
  std::atomic<int> echoes_{0};
};

RpcResponse BlockingCall(Channel& ch, NodeId node, std::uint16_t opcode,
                         std::string payload, CallMeta meta = {}) {
  RpcResponse out;
  ch.CallAsyncMeta(node, opcode, std::move(payload), meta,
                   [&out](RpcResponse r) { out = std::move(r); });
  return out;  // TcpChannel completes inline
}

// A channel with an open connection of its own, on which the echo opcode
// has run once.
std::unique_ptr<TcpChannel> WarmChannel(const TcpServer& server) {
  auto channel = std::make_unique<TcpChannel>();
  channel->Register(1, server.host(), server.port());
  RpcResponse r = BlockingCall(*channel, 1, kEchoOp, "warm");
  EXPECT_EQ(r.code, ErrCode::kOk);
  return channel;
}

// Poll kCtlLoadStatus over `probe` until `pred` holds (the event loop
// answers the probe itself, ahead of any queued work).
LoadStatus PollLoad(Channel& probe,
                    const std::function<bool(const LoadStatus&)>& pred) {
  LoadStatus status;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    RpcResponse r = BlockingCall(probe, 1, wire::kCtlLoadStatus, {});
    EXPECT_EQ(r.code, ErrCode::kOk);
    EXPECT_TRUE(DecodeLoadStatus(r.payload, &status).ok());
    if (pred(status)) return status;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "load-status predicate never held";
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(LoadStatusCodecTest, Roundtrip) {
  LoadStatus in;
  in.workers = 4;
  in.queued_foreground = 17;
  in.queued_background = 3;
  in.queued_control = 1;
  in.shed = 123456789ull;
  in.expired_dropped = 42;
  in.queue_delay_ewma_ns = 987654321ull;
  in.read_stalls = 7;
  in.slow_client_disconnects = 2;

  LoadStatus out;
  ASSERT_TRUE(DecodeLoadStatus(EncodeLoadStatus(in), &out).ok());
  EXPECT_EQ(out.workers, in.workers);
  EXPECT_EQ(out.queued_foreground, in.queued_foreground);
  EXPECT_EQ(out.queued_background, in.queued_background);
  EXPECT_EQ(out.queued_control, in.queued_control);
  EXPECT_EQ(out.shed, in.shed);
  EXPECT_EQ(out.expired_dropped, in.expired_dropped);
  EXPECT_EQ(out.queue_delay_ewma_ns, in.queue_delay_ewma_ns);
  EXPECT_EQ(out.read_stalls, in.read_stalls);
  EXPECT_EQ(out.slow_client_disconnects, in.slow_client_disconnects);
}

TEST(LoadStatusCodecTest, RejectsTruncatedAndOversized) {
  const std::string good = EncodeLoadStatus(LoadStatus{});
  LoadStatus out;
  EXPECT_FALSE(DecodeLoadStatus(good.substr(0, good.size() - 1), &out).ok());
  EXPECT_FALSE(DecodeLoadStatus(good + "x", &out).ok());
  EXPECT_FALSE(DecodeLoadStatus("", &out).ok());
}

TEST(OverloadTest, LoadStatusReportsTheWorkerCount) {
  GateHandler handler;
  for (int workers : {1, 2}) {
    TcpServer::Options options;
    options.workers = workers;
    TcpServer server(&handler, options);
    ASSERT_TRUE(server.Start().ok());
    TcpChannel channel;
    channel.Register(1, server.host(), server.port());
    RpcResponse r = BlockingCall(channel, 1, wire::kCtlLoadStatus, {});
    ASSERT_EQ(r.code, ErrCode::kOk);
    LoadStatus status;
    ASSERT_TRUE(DecodeLoadStatus(r.payload, &status).ok());
    EXPECT_EQ(status.workers, static_cast<std::uint32_t>(workers));
    EXPECT_EQ(status.shed, 0u);
    server.Stop();
  }
}

// The admission contract under saturation: background arrivals are shed
// first, a foreground arrival evicts queued background work, and every shed
// reply carries a retry-after hint.
TEST(OverloadTest, ShedsBackgroundBeforeForeground) {
  GateHandler handler;
  TcpServer::Options options;
  options.workers = 1;
  options.max_queue = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  // One channel per caller, each with its own warmed connection.
  auto chan_gate = WarmChannel(server);
  auto chan_bg = WarmChannel(server);
  auto chan_fg = WarmChannel(server);
  auto chan_shed = WarmChannel(server);
  auto chan_evict = WarmChannel(server);
  auto probe = WarmChannel(server);

  // Wedge the single worker.
  std::thread gate_thread([&] {
    RpcResponse r = BlockingCall(*chan_gate, 1, kGateOp, {});
    EXPECT_EQ(r.code, ErrCode::kOk);
  });
  handler.WaitEntered();

  // Fill the queue: one background, one foreground.
  CallMeta bg_meta;
  bg_meta.priority = Priority::kBackground;
  RpcResponse bg_resp;
  std::thread bg_thread([&] {
    bg_resp = BlockingCall(*chan_bg, 1, kEchoOp, "bg", bg_meta);
  });
  PollLoad(*probe, [](const LoadStatus& s) {
    return s.queued_background == 1;
  });
  std::thread fg_thread([&] {
    RpcResponse r = BlockingCall(*chan_fg, 1, kEchoOp, "fg");
    EXPECT_EQ(r.code, ErrCode::kOk);
  });
  PollLoad(*probe, [](const LoadStatus& s) {
    return s.queued_foreground == 1 && s.queued_background == 1;
  });

  // Queue full: a background arrival is shed on the spot...
  const RpcResponse shed = BlockingCall(*chan_shed, 1, kEchoOp, "bg2", bg_meta);
  EXPECT_EQ(shed.code, ErrCode::kOverloaded);
  {
    common::Reader r(shed.payload);
    const std::uint64_t hint_ns = r.GetU64();
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_GE(hint_ns, 1u * common::kMilli);
  }

  // ...while a foreground arrival evicts the queued background instead.
  std::thread evict_thread([&] {
    RpcResponse r = BlockingCall(*chan_evict, 1, kEchoOp, "fg2");
    EXPECT_EQ(r.code, ErrCode::kOk);
  });
  bg_thread.join();
  EXPECT_EQ(bg_resp.code, ErrCode::kOverloaded);

  handler.Release();
  gate_thread.join();
  fg_thread.join();
  evict_thread.join();

  EXPECT_EQ(server.shed_count(), 2u);
  EXPECT_EQ(server.expired_dropped_count(), 0u);
  // Both foreground echoes plus the warmups executed; the shed background
  // calls never reached the handler.
  EXPECT_EQ(handler.echoes(), 6 + 2);
  server.Stop();
}

// A request whose wire deadline budget lapses while queued is dropped at
// dequeue with kTimeout — the handler never runs it.
TEST(OverloadTest, ExpiredWorkDroppedAtDequeueNeverExecutes) {
  GateHandler handler;
  TcpServer::Options options;
  options.workers = 1;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  auto chan_gate = WarmChannel(server);
  auto chan_doomed = WarmChannel(server);
  auto probe = WarmChannel(server);
  const int warm_echoes = handler.echoes();

  std::thread gate_thread([&] {
    RpcResponse r = BlockingCall(*chan_gate, 1, kGateOp, {});
    EXPECT_EQ(r.code, ErrCode::kOk);
  });
  handler.WaitEntered();

  CallMeta meta;
  meta.deadline_ns = 30 * common::kMilli;
  RpcResponse doomed;
  std::thread doomed_thread([&] {
    doomed = BlockingCall(*chan_doomed, 1, kEchoOp, "late", meta);
  });
  PollLoad(*probe, [](const LoadStatus& s) {
    return s.queued_foreground == 1;
  });

  // Outlive the budget while the work sits in the queue, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  handler.Release();
  gate_thread.join();
  doomed_thread.join();

  EXPECT_EQ(doomed.code, ErrCode::kTimeout);
  // The gate's response can flush before the worker dequeues the doomed
  // request (where the expired drop is counted), so await the counter.
  for (int i = 0; i < 500 && server.expired_dropped_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.expired_dropped_count(), 1u);
  EXPECT_EQ(handler.echoes(), warm_echoes);  // never executed
  server.Stop();
}

// The queue_full fault key forces the admission decision without real load.
TEST(OverloadTest, QueueFullFaultForcesShedding) {
  auto spec = FaultSpec::Parse("queue_full=1.0");
  ASSERT_TRUE(spec.ok());
  FaultInjector fault(*spec);
  const std::uint64_t injected_before =
      common::MetricsRegistry::Default()
          .GetCounter("faults.injected.queue_full")
          .value();

  GateHandler handler;
  TcpServer::Options options;
  options.workers = 1;
  options.fault = &fault;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel;
  channel.Register(1, server.host(), server.port());
  const RpcResponse r = BlockingCall(channel, 1, kEchoOp, "x");
  EXPECT_EQ(r.code, ErrCode::kOverloaded);
  EXPECT_GE(server.shed_count(), 1u);
  EXPECT_GT(common::MetricsRegistry::Default()
                .GetCounter("faults.injected.queue_full")
                .value(),
            injected_before);

  // Control-class traffic is exempt: the load probe still answers.
  RpcResponse probe = BlockingCall(channel, 1, wire::kCtlLoadStatus, {});
  EXPECT_EQ(probe.code, ErrCode::kOk);
  server.Stop();
}

// A reader that never drains its socket is stalled at the soft output cap
// and disconnected at the hard cap instead of ballooning server memory.
TEST(OverloadTest, SlowClientHitsOutputCapAndIsDisconnected) {
  GateHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Two tiny amplifying requests: each response exceeds the hard cap
  // (2 x kMaxConnOutputBytes) on its own, so the output deque trips it no
  // matter how much the kernel socket buffers absorb.
  std::string burst;
  for (int i = 0; i < 2; ++i) {
    wire::FrameHeader header;
    header.type = wire::FrameType::kRequest;
    header.opcode = kBigOp;
    header.request_id = static_cast<std::uint64_t>(i + 1);
    header.trace_id = 1000 + static_cast<std::uint64_t>(i);
    burst += wire::EncodeFrame(header, "hi");
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  // Never read; wait for the server to give up on us.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.slow_client_disconnect_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.slow_client_disconnect_count(), 1u);

  // Drain what was flushed before the cut; the stream must end (EOF or
  // reset), not hang.
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_LE(n, 0);
  ::close(fd);
  server.Stop();
}

}  // namespace
}  // namespace loco::net
