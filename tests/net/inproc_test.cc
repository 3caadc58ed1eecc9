#include "net/inproc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/call.h"
#include "net/task.h"

namespace loco::net {
namespace {

class EchoHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    ++calls;
    return RpcResponse{ErrCode::kOk,
                       std::to_string(opcode) + ":" + std::string(payload)};
  }
  std::atomic<int> calls{0};
};

// Handler whose calls each wait inside Handle, up to a bound, until `want`
// calls are inside at once; a call that gave up answers kTimeout.
class RendezvousHandler final : public RpcHandler {
 public:
  explicit RendezvousHandler(int want) : want_(want) {}
  RpcResponse Handle(std::uint16_t, std::string_view) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++inside_;
    cv_.notify_all();
    const bool met = cv_.wait_for(lock, std::chrono::seconds(5),
                                  [this] { return inside_ >= want_; });
    return RpcResponse{met ? ErrCode::kOk : ErrCode::kTimeout, {}};
  }

 private:
  const int want_;
  std::mutex mu_;
  std::condition_variable cv_;
  int inside_ = 0;
};

TEST(InProcTest, RoutesToRegisteredHandler) {
  InProcTransport transport;
  EchoHandler h0, h1;
  transport.Register(0, &h0);
  transport.Register(1, &h1);

  RpcResponse resp;
  transport.CallAsync(1, 42, "hello", [&](RpcResponse r) { resp = std::move(r); });
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload, "42:hello");
  EXPECT_EQ(h0.calls, 0);
  EXPECT_EQ(h1.calls, 1);
}

TEST(InProcTest, UnknownServerIsUnavailable) {
  InProcTransport transport;
  RpcResponse resp;
  transport.CallAsync(9, 1, "", [&](RpcResponse r) { resp = std::move(r); });
  EXPECT_EQ(resp.code, ErrCode::kUnavailable);
}

TEST(InProcTest, CompletesInline) {
  InProcTransport transport;
  EchoHandler h;
  transport.Register(0, &h);
  bool fired = false;
  transport.CallAsync(0, 1, "x", [&](RpcResponse) { fired = true; });
  EXPECT_TRUE(fired);  // done ran before CallAsync returned
}

TEST(InProcTest, CoroutineClientRunsInline) {
  InProcTransport transport;
  EchoHandler h;
  transport.Register(0, &h);
  auto op = [](Channel& ch) -> Task<std::string> {
    RpcResponse a = co_await Call(ch, 0, 7, "a");
    RpcResponse b = co_await Call(ch, 0, 8, "b");
    co_return a.payload + "|" + b.payload;
  };
  EXPECT_EQ(RunInline(op(transport)), "7:a|8:b");
}

TEST(InProcTest, CallManyCollectsInServerOrder) {
  InProcTransport transport;
  EchoHandler h0, h1, h2;
  transport.Register(0, &h0);
  transport.Register(1, &h1);
  transport.Register(2, &h2);
  std::vector<RpcResponse> out;
  transport.FanOutAsync({{2, 5, "p"}, {0, 5, "p"}, {1, 5, "p"}}, CallMeta{},
                        [&](std::vector<RpcResponse> r) { out = std::move(r); });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].payload, "5:p");
  EXPECT_EQ(h0.calls, 1);
  EXPECT_EQ(h1.calls, 1);
  EXPECT_EQ(h2.calls, 1);
}

TEST(InProcTest, CallCountTracksPerServer) {
  InProcTransport transport;
  EchoHandler h;
  transport.Register(3, &h);
  for (int i = 0; i < 5; ++i) {
    transport.CallAsync(3, 1, "", [](RpcResponse) {});
  }
  EXPECT_EQ(transport.CallCount(3), 5u);
  EXPECT_EQ(transport.CallCount(99), 0u);
}

TEST(InProcTest, ConcurrentCallsToOneServerRunTogether) {
  // The transport adds no lock of its own: calls from two threads to one
  // server are inside its handler at the same time, as they are on a
  // multi-worker TcpServer.
  InProcTransport transport;
  RendezvousHandler h(2);
  transport.Register(0, &h);
  RpcResponse first, second;
  std::thread other([&] {
    transport.CallAsync(0, 1, "",
                        [&](RpcResponse r) { second = std::move(r); });
  });
  transport.CallAsync(0, 1, "", [&](RpcResponse r) { first = std::move(r); });
  other.join();
  EXPECT_EQ(first.code, ErrCode::kOk);
  EXPECT_EQ(second.code, ErrCode::kOk);
}

}  // namespace
}  // namespace loco::net
