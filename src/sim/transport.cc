#include "sim/transport.h"

#include <cstdio>

namespace loco::sim {

std::string ClusterConfig::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "net{rtt=%.0fus bw=%.1fGbps} server{slots=%d fixed=%.1fus "
                "cpu_scale=%.1f} client{per_op=%.1fus per_conn=%.2fus "
                "setup=%.0fus node_slots=%d} seed=%llu",
                common::ToMicros(net.rtt), net.bandwidth_bps / 1e9,
                server.slots, common::ToMicros(server.fixed_request_ns),
                server.cpu_scale, common::ToMicros(client.per_op_ns),
                common::ToMicros(client.per_connection_ns),
                common::ToMicros(client.connection_setup_ns),
                client.slots_per_client_node,
                static_cast<unsigned long long>(seed));
  return buf;
}

SimChannel::SimChannel(SimCluster* cluster, int client_node)
    : cluster_(cluster), client_node_(client_node) {}

Nanos SimChannel::IssueCost() const noexcept {
  const ClientConfig& cc = cluster_->config().client;
  const double oversub = cluster_->Oversubscription(client_node_);
  const Nanos base =
      cc.per_op_ns +
      static_cast<Nanos>(connections_.size()) * cc.per_connection_ns;
  return static_cast<Nanos>(static_cast<double>(base) * oversub);
}

void SimChannel::CallAsync(net::NodeId server, std::uint16_t opcode,
                           std::string payload,
                           std::function<void(net::RpcResponse)> done) {
  Simulation* sim = cluster_->sim();
  const NetConfig& net_cfg = cluster_->config().net;

  // Virtual-time RPC metrics: latency is issue-to-delivery on the sim clock;
  // bytes include the 16-byte framing header modeled below.
  const common::RpcMetricsTable::PerOp* m =
      &cluster_->rpc_metrics().For(opcode);
  m->calls->Add();
  m->bytes_sent->Add(payload.size() + 16);
  const Nanos issued_at = sim->Now();
  done = [m, sim, issued_at,
          inner = std::move(done)](net::RpcResponse resp) mutable {
    if (!resp.ok()) m->errors->Add();
    m->bytes_received->Add(resp.payload.size() + 16);
    m->latency->Record(sim->Now() - issued_at);
    inner(std::move(resp));
  };

  Nanos send_delay = 0;
  if (connections_.insert(server).second) {
    // First contact: TCP connect handshake plus any oversubscription.
    send_delay += static_cast<Nanos>(
        static_cast<double>(cluster_->config().client.connection_setup_ns) *
        cluster_->Oversubscription(client_node_));
    cluster_->NoteConnection(server);
  }
  // Request framing: opcode + length headers alongside the payload.
  send_delay += net_cfg.OneWay(payload.size() + 16);

  SimServer* target = cluster_->server(server);
  sim->Schedule(send_delay, [this, sim, target, opcode,
                             payload = std::move(payload),
                             done = std::move(done)]() mutable {
    target->Enqueue(opcode, std::move(payload),
                    [this, sim, done = std::move(done)](net::RpcResponse resp) {
                      const Nanos back = cluster_->config().net.OneWay(
                          resp.payload.size() + 16);
                      sim->Schedule(back, [done = std::move(done),
                                           resp = std::move(resp)]() mutable {
                        done(std::move(resp));
                      });
                    });
  });
}

SimCluster::SimCluster(Simulation* simulation, ClusterConfig config,
                       int client_nodes)
    : sim_(simulation), config_(config),
      client_nodes_(client_nodes > 0 ? client_nodes : 1),
      clients_per_node_(static_cast<std::size_t>(client_nodes_), 0) {}

net::NodeId SimCluster::AddServer(net::RpcHandler* handler) {
  const net::NodeId id = static_cast<net::NodeId>(servers_.size());
  servers_.push_back(std::make_unique<SimServer>(sim_, id, handler,
                                                 config_.server));
  connections_per_server_.push_back(0);
  // Per-request connection-state overhead grows with connected clients
  // (epoll sets, socket buffers): the server-side half of Table 3's
  // client-count optimum.
  SimServer* server = servers_.back().get();
  server->SetExtraServiceFn([this, id]() -> Nanos {
    return static_cast<Nanos>(connections_per_server_[id]) * 40;  // 40ns/conn
  });
  return id;
}

std::unique_ptr<SimChannel> SimCluster::NewClientChannel() {
  const int node = total_clients_ % client_nodes_;
  ++clients_per_node_[static_cast<std::size_t>(node)];
  ++total_clients_;
  return std::make_unique<SimChannel>(this, node);
}

double SimCluster::Oversubscription(int node) const noexcept {
  const int clients = clients_per_node_[static_cast<std::size_t>(node)];
  const int slots = config_.client.slots_per_client_node;
  return clients > slots ? static_cast<double>(clients) / slots : 1.0;
}

void SimCluster::NoteConnection(net::NodeId server) {
  if (server < connections_per_server_.size()) {
    ++connections_per_server_[server];
  }
}

}  // namespace loco::sim
