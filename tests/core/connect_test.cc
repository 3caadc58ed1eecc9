// core::Connect facade tests: the --connect spec grammar, the canonical node
// id assignment, the notify-plane wiring, mount-scoped client ids, the
// overload-control fields a mount puts on the wire and its one call deadline.
#include "core/connect.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "core/dms.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace loco::core {
namespace {

constexpr std::uint16_t kEchoOp = 7;
constexpr std::uint16_t kGateOp = 100;

// Echoes payloads; kGateOp blocks in the handler until Release().  Behind a
// one-worker server it wedges the worker, so every later call queues.
class GateHandler final : public net::RpcHandler {
 public:
  net::RpcResponse Handle(std::uint16_t opcode,
                          std::string_view payload) override {
    if (opcode == kGateOp) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return net::RpcResponse{ErrCode::kOk, {}};
    }
    echoes_.fetch_add(1, std::memory_order_relaxed);
    return net::RpcResponse{ErrCode::kOk, std::string(payload)};
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
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
  bool entered_ = false;
  bool released_ = false;
  std::atomic<int> echoes_{0};
};

net::RpcResponse BlockingCall(net::Channel& channel, net::NodeId node,
                              std::uint16_t opcode, std::string payload,
                              net::CallMeta meta = {}) {
  net::RpcResponse out;
  channel.CallAsyncMeta(node, opcode, std::move(payload), meta,
                        [&out](net::RpcResponse r) { out = std::move(r); });
  return out;  // TCP channels complete inline
}

TEST(ConnectSpecTest, ParsesRolesInAnyOrder) {
  auto opts = ClientOptions::FromSpec(
      "fms=127.0.0.1:9001,osd=127.0.0.1:9100,dms=127.0.0.1:9000,"
      "fms=127.0.0.1:9002");
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->dms, (std::vector<std::string>{"127.0.0.1:9000"}));
  ASSERT_EQ(opts->fms.size(), 2u);
  EXPECT_EQ(opts->fms[0], "127.0.0.1:9001");
  EXPECT_EQ(opts->fms[1], "127.0.0.1:9002");
  ASSERT_EQ(opts->object_stores.size(), 1u);
  EXPECT_EQ(opts->object_stores[0], "127.0.0.1:9100");
  // Non-endpoint fields keep their defaults.
  EXPECT_TRUE(opts->cache_enabled);
  EXPECT_TRUE(opts->resilience);
  EXPECT_TRUE(opts->notify);
}

TEST(ConnectSpecTest, RejectsMalformedSpecs) {
  // Missing roles.
  EXPECT_EQ(ClientOptions::FromSpec("").code(), ErrCode::kInvalid);
  EXPECT_EQ(ClientOptions::FromSpec("dms=1.2.3.4:1").code(), ErrCode::kInvalid);
  EXPECT_EQ(ClientOptions::FromSpec("dms=h:1,fms=h:2").code(),
            ErrCode::kInvalid);
  EXPECT_EQ(ClientOptions::FromSpec("fms=h:2,osd=h:3").code(),
            ErrCode::kInvalid);
  // Bad role / bad address / missing '='.
  EXPECT_EQ(ClientOptions::FromSpec("dms=h:1,fms=h:2,osd=h:3,mds=h:4").code(),
            ErrCode::kInvalid);
  EXPECT_EQ(ClientOptions::FromSpec("dms=h,fms=h:2,osd=h:3").code(),
            ErrCode::kInvalid);
  EXPECT_EQ(ClientOptions::FromSpec("dms,fms=h:2,osd=h:3").code(),
            ErrCode::kInvalid);
}

TEST(ConnectSpecTest, RepeatedDmsEntriesAreShardsInSpecOrder) {
  auto opts = ClientOptions::FromSpec(
      "dms=127.0.0.1:9000,fms=127.0.0.1:9001,dms=127.0.0.1:9010,"
      "osd=127.0.0.1:9100");
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->dms,
            (std::vector<std::string>{"127.0.0.1:9000", "127.0.0.1:9010"}));
}

TEST(ConnectSpecTest, SpecLeavesFeatureKnobsAtTheirDefaults) {
  auto opts = ClientOptions::FromSpec(
      "dms=127.0.0.1:9000,fms=127.0.0.1:9001,osd=127.0.0.1:9100");
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->cache_enabled);
  EXPECT_TRUE(opts->resilience);
  EXPECT_TRUE(opts->notify);
}

TEST(ConnectTest, AssignsStableNodeIdsAndHonoursFeatureKnobs) {
  auto opts = ClientOptions::FromSpec(
      "dms=127.0.0.1:9000,fms=127.0.0.1:9001,fms=127.0.0.1:9002,"
      "osd=127.0.0.1:9100,osd=127.0.0.1:9101");
  ASSERT_TRUE(opts.ok());
  // Notify off: no listener thread is spawned against the (absent) daemons.
  opts->notify = false;
  opts->resilience = false;
  opts->cache_enabled = false;
  auto mount = Connect(*opts);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  EXPECT_FALSE(mount->config.cache_enabled);
  EXPECT_EQ(mount->config.lease_ns, proto::kLeaseNs);
  EXPECT_EQ(mount->config.dms, (std::vector<net::NodeId>{0}));
  EXPECT_EQ(mount->config.fms, (std::vector<net::NodeId>{1, 2}));
  EXPECT_EQ(mount->config.object_stores,
            (std::vector<net::NodeId>{1000, 1001}));
  ASSERT_NE(mount->channel, nullptr);
  EXPECT_EQ(mount->resilient, nullptr);
  EXPECT_TRUE(mount->listeners.empty());
  EXPECT_EQ(mount->fanout, nullptr);
  EXPECT_NE(mount->client_id, 0u);
  // rpc() is the bare channel when resilience is off.
  EXPECT_EQ(&mount->rpc(), static_cast<net::Channel*>(mount->channel.get()));
  // No daemon is running: clients built from this mount surface kUnavailable
  // rather than hanging (covered by the TCP e2e suite).
  auto client = mount->MakeClient([] { return std::uint64_t{1}; });
  EXPECT_NE(client, nullptr);
}

TEST(ConnectTest, DmsShardsGetStableNodeIds) {
  // Shard 0 keeps the historic node id 0; later shards are 900+i, so a
  // single-shard spec stays wire-compatible with old deployments.
  auto opts = ClientOptions::FromSpec(
      "dms=127.0.0.1:9000,dms=127.0.0.1:9010,dms=127.0.0.1:9020,"
      "fms=127.0.0.1:9001,osd=127.0.0.1:9100");
  ASSERT_TRUE(opts.ok());
  opts->notify = false;
  opts->resilience = false;
  auto mount = Connect(*opts);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  EXPECT_EQ(mount->config.dms, (std::vector<net::NodeId>{0, 901, 902}));
}

TEST(ConnectTest, DistinctMountsGetDistinctClientIds) {
  auto opts = ClientOptions::FromSpec(
      "dms=127.0.0.1:9000,fms=127.0.0.1:9001,osd=127.0.0.1:9100");
  ASSERT_TRUE(opts.ok());
  opts->notify = false;
  opts->resilience = false;
  auto a = Connect(*opts);
  auto b = Connect(*opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->client_id, 0u);
  EXPECT_NE(a->client_id, b->client_id);
}

TEST(ConnectTest, NotifyMountWiresListenerAndFanout) {
  // A live DMS behind a real TcpServer: the mount's listener negotiates the
  // notify stream; pushes reach clients made from the mount.
  DirectoryMetadataServer dms;
  net::TcpServer server(&dms);
  ASSERT_TRUE(server.Start().ok());
  dms.SetNotifier(&server);

  ClientOptions opts;
  const std::string addr =
      server.host() + ":" + std::to_string(server.port());
  opts.dms = {addr};
  opts.fms = {addr};  // never called in this test
  opts.object_stores = {addr};
  auto mount = Connect(opts);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  ASSERT_EQ(mount->listeners.size(), 1u);
  ASSERT_NE(mount->fanout, nullptr);
  ASSERT_NE(mount->resilient, nullptr);
  EXPECT_EQ(&mount->rpc(),
            static_cast<net::Channel*>(mount->resilient.get()));
  // The listener completes its hello and registers a notify session.
  for (int i = 0; i < 500 && server.notify_sessions() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.notify_sessions(), 1u);
  for (int i = 0; i < 500 && !mount->listeners[0]->connected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(mount->listeners[0]->connected());
}

TEST(ConnectTest, MountCallDeadlineBoundsAllAttempts) {
  // channel.call_deadline_ns is the mount's one deadline: the resilient
  // layer spends it across every attempt of a call and grants none of its
  // own, so a 200 ms mount gives up on a 1 s handler after about 200 ms.
  class SleepHandler final : public net::RpcHandler {
   public:
    net::RpcResponse Handle(std::uint16_t,
                            std::string_view payload) override {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      return net::RpcResponse{ErrCode::kOk, std::string(payload)};
    }
  };
  SleepHandler handler;
  net::TcpServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  const std::string addr =
      server.host() + ":" + std::to_string(server.port());
  ClientOptions opts;
  opts.dms = {addr};
  opts.fms = {addr};
  opts.object_stores = {addr};
  opts.notify = false;
  opts.channel.call_deadline_ns = 200 * common::kMilli;
  auto mount = Connect(opts);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  ASSERT_NE(mount->resilient, nullptr);

  const common::CpuTimer timer;
  EXPECT_EQ(
      BlockingCall(mount->rpc(), mount->config.fms[0], kEchoOp, "x").code,
      ErrCode::kTimeout);
  EXPECT_LT(timer.ElapsedNanos(), 500 * common::kMilli);
}

TEST(ConnectTest, MountCallsCarryDeadlineAndPriorityOnTheWire) {
  // A mount's pooled connections say hello with its client id, and every
  // call on them must still carry its deadline budget and priority class,
  // so a wedged server drops work whose caller gave up and queues
  // background work as background (docs/OVERLOAD.md).
  GateHandler handler;
  net::TcpServer::Options server_options;
  server_options.workers = 1;
  net::TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start().ok());
  const std::string addr =
      server.host() + ":" + std::to_string(server.port());
  ClientOptions opts;
  opts.dms = {addr};
  opts.fms = {addr};
  opts.object_stores = {addr};
  opts.notify = false;
  auto mount = Connect(opts);
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  const net::NodeId node = mount->config.fms[0];
  ASSERT_EQ(BlockingCall(mount->rpc(), node, kEchoOp, "warm").code,
            ErrCode::kOk);

  // Wedge the one worker from a channel of its own.
  net::TcpChannel gate_channel;
  gate_channel.Register(1, server.host(), server.port());
  std::thread gate([&] {
    EXPECT_EQ(BlockingCall(gate_channel, 1, kGateOp, {}).code, ErrCode::kOk);
  });
  handler.WaitEntered();

  // A 20 ms call queued behind the wedge: the caller gives up...
  const std::uint64_t expired_before = server.expired_dropped_count();
  net::CallMeta short_meta;
  short_meta.deadline_ns = 20 * common::kMilli;
  EXPECT_EQ(
      BlockingCall(mount->rpc(), node, kEchoOp, "late", short_meta).code,
      ErrCode::kTimeout);

  // A background call queues in the background class.
  net::CallMeta bg_meta;
  bg_meta.priority = net::Priority::kBackground;
  net::RpcResponse bg;
  std::thread bg_thread([&] {
    bg = BlockingCall(mount->rpc(), node, kEchoOp, "bg", bg_meta);
  });
  net::TcpChannel probe;
  probe.Register(1, server.host(), server.port());
  net::LoadStatus load;
  for (int i = 0; i < 2500; ++i) {
    const net::RpcResponse r =
        BlockingCall(probe, 1, net::wire::kCtlLoadStatus, {});
    ASSERT_TRUE(net::DecodeLoadStatus(r.payload, &load).ok());
    if (load.queued_foreground + load.queued_background >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(load.queued_foreground, 1u);  // the abandoned call
  EXPECT_EQ(load.queued_background, 1u);

  handler.Release();
  gate.join();
  bg_thread.join();
  EXPECT_EQ(bg.code, ErrCode::kOk);
  // ...and the server drops its call unexecuted rather than run it for an
  // absent caller.
  for (int i = 0; i < 2500 && server.expired_dropped_count() == expired_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.expired_dropped_count(), expired_before + 1);
  EXPECT_EQ(handler.echoes(), 2);  // "warm" and "bg", never "late"
}

}  // namespace
}  // namespace loco::core
