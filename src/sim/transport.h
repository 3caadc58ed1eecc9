// SimCluster: the simulated deployment — servers, client channels, and the
// network model stitching them together on the virtual clock.
//
// Topology mirrors the paper's testbed: metadata servers registered with
// AddServer, client processes packed round-robin onto a fixed set of client
// nodes (Table 2: 6 SuperMicro nodes, 48 hardware threads each).  A client
// node oversubscribed beyond its slots inflates its clients' CPU costs —
// the effect behind the paper's "optimal number of clients" (Table 3).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "net/rpc.h"
#include "sim/config.h"
#include "sim/server.h"
#include "sim/simulation.h"

namespace loco::sim {

class SimCluster;

// One client process's view of the network.  Tracks which servers it has
// opened connections to; the first message to a server pays connection
// setup, and every message pays a per-open-connection bookkeeping cost —
// the paper's "more connections slow down the client" effect (§4.2.1).
class SimChannel final : public net::Channel {
 public:
  SimChannel(SimCluster* cluster, int client_node);

  void CallAsync(net::NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(net::RpcResponse)> done) override;

  int client_node() const noexcept { return client_node_; }
  std::size_t connection_count() const noexcept { return connections_.size(); }

  // CPU cost this client pays to issue one RPC right now (exposed so the
  // closed-loop driver can include it in op pacing).
  Nanos IssueCost() const noexcept;

 private:
  SimCluster* cluster_;
  int client_node_;
  std::set<net::NodeId> connections_;
};

class SimCluster {
 public:
  SimCluster(Simulation* simulation, ClusterConfig config,
             int client_nodes = 6);

  // Register a server hosting `handler`; returns its node id.
  net::NodeId AddServer(net::RpcHandler* handler);

  // Create a channel for one new client process (assigned round-robin to a
  // client node).
  std::unique_ptr<SimChannel> NewClientChannel();

  SimServer* server(net::NodeId id) { return servers_.at(id).get(); }
  std::size_t server_count() const noexcept { return servers_.size(); }
  Simulation* sim() noexcept { return sim_; }
  const ClusterConfig& config() const noexcept { return config_; }

  // CPU inflation factor for clients on `node` (>= 1).
  double Oversubscription(int node) const noexcept;

  int total_clients() const noexcept { return total_clients_; }

  // Per-opcode RPC metrics shared by every channel of this cluster, measured
  // in virtual time (request issue to response delivery on the sim clock).
  common::RpcMetricsTable& rpc_metrics() noexcept { return rpc_metrics_; }

  // Connection bookkeeping (driven by SimChannel).
  void NoteConnection(net::NodeId server);
  std::uint64_t connections_to(net::NodeId server) const {
    return server < connections_per_server_.size()
               ? connections_per_server_[server] : 0;
  }

 private:
  Simulation* sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<SimServer>> servers_;
  std::vector<std::uint64_t> connections_per_server_;
  int client_nodes_;
  std::vector<int> clients_per_node_;
  int total_clients_ = 0;
  common::RpcMetricsTable rpc_metrics_{&common::MetricsRegistry::Default(),
                                       "sim", "virtual_ns"};
};

}  // namespace loco::sim
