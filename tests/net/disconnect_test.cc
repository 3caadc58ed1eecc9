// TcpServer disconnect callbacks: on_client_disconnect fires exactly once
// when the *last* connection that said hello as a client id closes, and
// on_notify_disconnect fires as soon as a notify stream drops — the hook the
// DMS lease table uses to shed a dead client's watches without waiting out a
// TTL sweep (docs/LEASES.md).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/notify.h"
#include "net/tcp.h"

namespace loco::net {
namespace {

class NullHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t, std::string_view payload) override {
    return RpcResponse{ErrCode::kOk, std::string(payload)};
  }
};

// Thread-safe record of disconnect callback invocations.
class DisconnectLog {
 public:
  void Add(std::uint64_t client) {
    std::lock_guard<std::mutex> lock(mu_);
    clients_.push_back(client);
  }

  std::vector<std::uint64_t> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clients_;
  }

  std::size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clients_.size();
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
  std::vector<std::uint64_t> clients_;
};

RpcResponse BlockingCall(Channel& channel, NodeId node, std::uint16_t opcode,
                         std::string payload) {
  RpcResponse out;
  channel.CallAsync(node, opcode, std::move(payload),
                    [&out](RpcResponse r) { out = std::move(r); });
  return out;  // TcpChannel completes inline
}

std::unique_ptr<TcpChannel> IdentifiedChannel(const TcpServer& server,
                                              std::uint64_t client_id) {
  TcpChannelOptions options;
  options.client_id = client_id;
  auto channel = std::make_unique<TcpChannel>(options);
  channel->Register(1, server.host(), server.port());
  return channel;
}

TEST(DisconnectTest, ClientDisconnectFiresWhenLastConnectionDies) {
  NullHandler handler;
  DisconnectLog log;
  TcpServer::Options options;
  options.on_client_disconnect = [&log](std::uint64_t c) { log.Add(c); };
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  // Two channels say hello as client 7 (a remounted client, or one pooling
  // extra sockets); a third stays anonymous and must never trigger the hook.
  auto first = IdentifiedChannel(server, 7);
  auto second = IdentifiedChannel(server, 7);
  TcpChannel anonymous;
  anonymous.Register(1, server.host(), server.port());
  ASSERT_EQ(BlockingCall(*first, 1, 5, "a").code, ErrCode::kOk);
  ASSERT_EQ(BlockingCall(*second, 1, 5, "b").code, ErrCode::kOk);
  ASSERT_EQ(BlockingCall(anonymous, 1, 5, "c").code, ErrCode::kOk);

  // Closing one of client 7's connections is not a disconnect: another
  // connection with the same identity is still alive.
  first.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(log.Count(), 0u);
  EXPECT_EQ(BlockingCall(*second, 1, 5, "d").code, ErrCode::kOk);

  // Closing the last one is: the callback fires exactly once, with the id
  // from the hello exchange.
  second.reset();
  ASSERT_TRUE(log.Await([&] { return log.Count() == 1; }));
  EXPECT_EQ(log.Snapshot(), (std::vector<std::uint64_t>{7}));

  // The anonymous connection (no hello, client id 0) closes silently.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(log.Count(), 1u);
}

TEST(DisconnectTest, ReconnectAfterDisconnectFiresAgain) {
  NullHandler handler;
  DisconnectLog log;
  TcpServer::Options options;
  options.on_client_disconnect = [&log](std::uint64_t c) { log.Add(c); };
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  for (std::uint64_t round = 1; round <= 2; ++round) {
    auto channel = IdentifiedChannel(server, 42);
    ASSERT_EQ(BlockingCall(*channel, 1, 5, "x").code, ErrCode::kOk);
    channel.reset();
    ASSERT_TRUE(log.Await([&] { return log.Count() == round; }));
  }
  EXPECT_EQ(log.Snapshot(), (std::vector<std::uint64_t>{42, 42}));
}

TEST(DisconnectTest, NotifyDisconnectFiresWhenStreamDrops) {
  NullHandler handler;
  DisconnectLog notify_log;
  DisconnectLog client_log;
  TcpServer::Options options;
  options.on_notify_disconnect = [&notify_log](std::uint64_t c) {
    notify_log.Add(c);
  };
  options.on_client_disconnect = [&client_log](std::uint64_t c) {
    client_log.Add(c);
  };
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  NotifyListener::Options listener_options;
  listener_options.host = server.host();
  listener_options.port = server.port();
  listener_options.client_id = 9;
  auto listener = std::make_unique<NotifyListener>(
      listener_options, [](const NotifyEvent&) {});
  ASSERT_TRUE(listener->Start().ok());
  ASSERT_TRUE(notify_log.Await([&] { return server.notify_sessions() == 1; }));

  // Tearing the listener down closes its stream: the server reports the lost
  // notify session immediately, and — the stream being client 9's only
  // connection — the client-disconnect hook fires too.
  listener.reset();
  ASSERT_TRUE(notify_log.Await([&] { return notify_log.Count() == 1; }));
  EXPECT_EQ(notify_log.Snapshot(), (std::vector<std::uint64_t>{9}));
  ASSERT_TRUE(client_log.Await([&] { return client_log.Count() == 1; }));
  EXPECT_EQ(client_log.Snapshot(), (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(server.notify_sessions(), 0u);
}

}  // namespace
}  // namespace loco::net
