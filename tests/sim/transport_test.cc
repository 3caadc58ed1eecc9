#include "sim/transport.h"

#include <gtest/gtest.h>

#include "net/call.h"
#include "net/task.h"

namespace loco::sim {
namespace {

class EchoHandler final : public net::RpcHandler {
 public:
  net::RpcResponse Handle(std::uint16_t, std::string_view payload) override {
    return net::RpcResponse{ErrCode::kOk, std::string(payload)};
  }
};

// A config with every client/server software cost zeroed so latencies are
// pure network math; RTT = 100us, infinite bandwidth.
ClusterConfig BareConfig() {
  ClusterConfig cfg;
  cfg.net.rtt = 100 * common::kMicro;
  cfg.net.bandwidth_bps = 0;  // 0 disables the transfer-time term
  cfg.net.per_message_ns = 0;
  cfg.server.slots = 1;
  cfg.server.fixed_request_ns = 0;
  cfg.server.mode = ServiceTimeMode::kFixed;
  cfg.server.fixed_service_ns = 0;
  cfg.client.per_op_ns = 0;
  cfg.client.per_connection_ns = 0;
  cfg.client.connection_setup_ns = 0;
  return cfg;
}

TEST(SimTransportTest, SingleCallTakesOneRtt) {
  Simulation sim;
  SimCluster cluster(&sim, BareConfig());
  EchoHandler handler;
  const net::NodeId id = cluster.AddServer(&handler);
  // Disable the connection-state surcharge for exact math.
  cluster.server(id)->SetExtraServiceFn(nullptr);

  auto channel = cluster.NewClientChannel();
  Nanos done_at = -1;
  std::string payload_out;
  sim.Schedule(0, [&] {
    channel->CallAsync(id, 1, "hello", [&](net::RpcResponse r) {
      done_at = sim.Now();
      payload_out = std::move(r.payload);
    });
  });
  sim.Run();
  EXPECT_EQ(done_at, 100 * common::kMicro);  // RTT/2 out + RTT/2 back
  EXPECT_EQ(payload_out, "hello");
}

TEST(SimTransportTest, ConnectionSetupChargedOnce) {
  Simulation sim;
  ClusterConfig cfg = BareConfig();
  cfg.client.connection_setup_ns = 1 * common::kMilli;
  SimCluster cluster(&sim, cfg);
  EchoHandler handler;
  const net::NodeId id = cluster.AddServer(&handler);
  cluster.server(id)->SetExtraServiceFn(nullptr);

  auto channel = cluster.NewClientChannel();
  std::vector<Nanos> done_times;
  sim.Schedule(0, [&] {
    channel->CallAsync(id, 1, "", [&](net::RpcResponse) {
      done_times.push_back(sim.Now());
      channel->CallAsync(id, 1, "", [&](net::RpcResponse) {
        done_times.push_back(sim.Now());
      });
    });
  });
  sim.Run();
  ASSERT_EQ(done_times.size(), 2u);
  EXPECT_EQ(done_times[0], 1 * common::kMilli + 100 * common::kMicro);
  // Second call: no setup, just one RTT.
  EXPECT_EQ(done_times[1] - done_times[0], 100 * common::kMicro);
  EXPECT_EQ(channel->connection_count(), 1u);
  EXPECT_EQ(cluster.connections_to(id), 1u);
}

TEST(SimTransportTest, BandwidthAddsTransferTime) {
  Simulation sim;
  ClusterConfig cfg = BareConfig();
  cfg.net.bandwidth_bps = 1e9;  // 1 Gbps: 1 MiB takes ~8.39 ms one way
  SimCluster cluster(&sim, cfg);
  EchoHandler handler;
  const net::NodeId id = cluster.AddServer(&handler);
  cluster.server(id)->SetExtraServiceFn(nullptr);

  auto channel = cluster.NewClientChannel();
  Nanos done_at = -1;
  const std::string big(1 << 20, 'x');
  sim.Schedule(0, [&] {
    channel->CallAsync(id, 1, big, [&](net::RpcResponse) { done_at = sim.Now(); });
  });
  sim.Run();
  // Request transfer ~8.39ms (and the echoed response the same) + RTT.
  const Nanos expect_min = 100 * common::kMicro + 2 * 8'388'608;
  EXPECT_GE(done_at, expect_min);
  EXPECT_LT(done_at, expect_min + common::kMilli);
}

TEST(SimTransportTest, CallManyOverlapsInVirtualTime) {
  Simulation sim;
  ClusterConfig cfg = BareConfig();
  cfg.server.fixed_service_ns = 10 * common::kMicro;
  SimCluster cluster(&sim, cfg);
  EchoHandler h0, h1, h2, h3;
  for (auto* h : {&h0, &h1, &h2, &h3}) {
    const auto id = cluster.AddServer(h);
    cluster.server(id)->SetExtraServiceFn(nullptr);
  }
  auto channel = cluster.NewClientChannel();
  Nanos done_at = -1;
  sim.Schedule(0, [&] {
    channel->FanOutAsync({{0, 1, ""}, {1, 1, ""}, {2, 1, ""}, {3, 1, ""}},
                         net::CallMeta{},
                         [&](std::vector<net::RpcResponse> r) {
                           ASSERT_EQ(r.size(), 4u);
                           done_at = sim.Now();
                         });
  });
  sim.Run();
  // All four proceed in parallel: one RTT + one service time, NOT 4x.
  EXPECT_EQ(done_at, 100 * common::kMicro + 10 * common::kMicro);
}

TEST(SimTransportTest, CoroutineClientOverSim) {
  Simulation sim;
  SimCluster cluster(&sim, BareConfig());
  EchoHandler handler;
  const net::NodeId id = cluster.AddServer(&handler);
  cluster.server(id)->SetExtraServiceFn(nullptr);
  auto channel = cluster.NewClientChannel();

  auto op = [](net::Channel& ch, net::NodeId server) -> net::Task<std::string> {
    net::RpcResponse a = co_await net::Call(ch, server, 1, "ping");
    net::RpcResponse b = co_await net::Call(ch, server, 1, a.payload + "!");
    co_return b.payload;
  };

  std::string result;
  Nanos done_at = -1;
  sim.Schedule(0, [&] {
    net::StartTask(op(*channel, id), [&](std::string s) {
      result = std::move(s);
      done_at = sim.Now();
    });
  });
  sim.Run();
  EXPECT_EQ(result, "ping!");
  EXPECT_EQ(done_at, 200 * common::kMicro);  // two sequential round trips
}

TEST(SimTransportTest, OversubscriptionKicksInAboveNodeSlots) {
  Simulation sim;
  ClusterConfig cfg = BareConfig();
  cfg.client.slots_per_client_node = 2;
  SimCluster cluster(&sim, cfg, /*client_nodes=*/1);
  auto c1 = cluster.NewClientChannel();
  EXPECT_DOUBLE_EQ(cluster.Oversubscription(0), 1.0);
  auto c2 = cluster.NewClientChannel();
  EXPECT_DOUBLE_EQ(cluster.Oversubscription(0), 1.0);
  auto c3 = cluster.NewClientChannel();
  EXPECT_DOUBLE_EQ(cluster.Oversubscription(0), 1.5);
  EXPECT_EQ(cluster.total_clients(), 3);
}

TEST(SimTransportTest, ClientsSpreadRoundRobinAcrossNodes) {
  Simulation sim;
  SimCluster cluster(&sim, BareConfig(), /*client_nodes=*/3);
  auto a = cluster.NewClientChannel();
  auto b = cluster.NewClientChannel();
  auto c = cluster.NewClientChannel();
  auto d = cluster.NewClientChannel();
  EXPECT_EQ(a->client_node(), 0);
  EXPECT_EQ(b->client_node(), 1);
  EXPECT_EQ(c->client_node(), 2);
  EXPECT_EQ(d->client_node(), 0);
}

TEST(SimTransportTest, DescribeMentionsKeyKnobs) {
  ClusterConfig cfg;
  const std::string desc = cfg.Describe();
  EXPECT_NE(desc.find("rtt=174us"), std::string::npos);
  EXPECT_NE(desc.find("slots=8"), std::string::npos);
}

TEST(DeviceModelTest, CostScalesWithOpsAndBytes) {
  const DeviceModel ssd = DeviceModel::Ssd();
  const DeviceModel hdd = DeviceModel::Hdd();
  EXPECT_EQ(ssd.Cost(0, 0), 0);
  EXPECT_GT(hdd.Cost(1, 0), ssd.Cost(1, 0));  // seek dominates on HDD
  EXPECT_GT(ssd.Cost(1, 1 << 20), ssd.Cost(1, 0));
  // 10 ops on HDD ~ 80ms of seeks.
  EXPECT_NEAR(static_cast<double>(hdd.Cost(10, 0)), 80e6, 1e3);
}

}  // namespace
}  // namespace loco::sim
