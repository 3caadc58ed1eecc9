// Deployment of a file system onto a SimCluster (or, for tests, any node
// registry): instantiates the metadata servers, object stores, and a client
// factory for one of the evaluated systems.
//
// Node layout mirrors the paper's testbed: N metadata nodes plus dedicated
// object/data nodes.  For LocoFS the single DMS is co-hosted on metadata
// node 0 alongside that node's FMS (the paper's "one metadata server"
// configuration runs both roles on the one node); a MuxHandler routes the
// disjoint opcode ranges to the right service.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/client.h"
#include "baselines/flavors.h"
#include "common/metrics.h"
#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "fs/client.h"
#include "sim/transport.h"

namespace loco::bench {

// The systems the paper evaluates (graph legends of Figs. 6-13).
enum class System {
  kLocoC,     // LocoFS with client cache
  kLocoNC,    // LocoFS without client cache
  kLocoCF,    // LocoFS with coupled file metadata (Fig. 11 ablation)
  kIndexFs,
  kCephFs,
  kGluster,
  kLustreD1,
  kLustreD2,
};

std::string_view SystemName(System system) noexcept;
bool IsLocoFs(System system) noexcept;

// Routes disjoint opcode ranges to different handlers on one node.  Forwards
// the full HandlerContext so context-aware services behind the mux (the DMS
// lease/push plane keys on ctx.client_id) see the caller's identity.
class MuxHandler final : public net::RpcHandler {
 public:
  void Route(std::uint16_t lo, std::uint16_t hi, net::RpcHandler* handler) {
    routes_.push_back(Route_{lo, hi, handler});
  }
  net::RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    return HandleCtx(opcode, payload, net::HandlerContext{});
  }
  net::RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                             const net::HandlerContext& ctx) override {
    for (const Route_& r : routes_) {
      if (opcode >= r.lo && opcode <= r.hi) {
        return r.handler->HandleCtx(opcode, payload, ctx);
      }
    }
    return net::RpcResponse{ErrCode::kUnsupported, {}};
  }

 private:
  struct Route_ {
    std::uint16_t lo, hi;
    net::RpcHandler* handler;
  };
  std::vector<Route_> routes_;
};

// A deployed file system: owns every server-side object; hands out clients.
struct Deployment {
  System system;
  std::vector<std::unique_ptr<net::RpcHandler>> handlers;  // all owned servers
  std::vector<std::unique_ptr<MuxHandler>> muxes;
  std::vector<net::NodeId> metadata_nodes;
  std::vector<net::NodeId> object_nodes;

  // Build one client-process library over a channel.
  std::function<std::unique_ptr<fs::FileSystemClient>(net::Channel&, fs::TimeFn)>
      make_client;

  // Introspection (set for LocoFS deployments).  `dms` is shard 0;
  // `dms_shards` lists every shard in shard order.
  core::DirectoryMetadataServer* dms = nullptr;
  std::vector<core::DirectoryMetadataServer*> dms_shards;
  std::vector<core::FileMetadataServer*> fms;
  std::vector<baselines::NsServer*> ns_servers;
};

struct DeployOptions {
  int metadata_servers = 1;
  int object_servers = 2;
  // LocoFS: number of DMS shards (docs/SHARDING.md).  Shard i is co-hosted
  // on metadata node i while nodes last; extra shards get dedicated nodes.
  int dms_shards = 1;
  // LocoFS: DMS store backend (Fig. 14 compares kBTree vs kHash).
  kv::KvBackend dms_backend = kv::KvBackend::kBTree;
  // Object store device.
  core::DeviceProfile object_device{60'000, 450e6};
  // See ObjectStoreServer::Options::retain_data.
  bool object_retain_data = true;
  // LocoFS client d-inode lease duration (ns); 0 disables caching entirely
  // even for System::kLocoC (ablation knob).
  std::uint64_t loco_lease_ns = core::proto::kLeaseNs;
};

// Deploy onto a simulated cluster (registers servers as SimCluster nodes).
Deployment Deploy(System system, sim::SimCluster* cluster,
                  const DeployOptions& options);

// Remote (TCP) deployments: use core::ClientOptions + core::Connect()
// (core/connect.h) — the former bench::ConnectRemote plumbing lives there
// now, unified with the notify plane.

// ---------------------------------------------------------------------------
// Metrics exposition for benchmark binaries.
//
// Every bench accepts `--metrics-out <file>.json` (or `--metrics-out=...`)
// and, when given, writes the process-wide MetricsRegistry as JSON on exit:
// per-opcode RPC counters and latency histograms, per-server op counters,
// KV-store gauges, and client cache statistics.

// Extract the flag from argv (removing it, so downstream argument parsers
// such as google-benchmark never see it).  Returns "" when absent.
std::string MetricsOutPath(int& argc, char** argv);

// Serialize common::MetricsRegistry::Default() to `path`; false on I/O error.
bool WriteMetricsJson(const std::string& path);

// Scope guard a bench main() creates first thing: parses the flag and dumps
// the registry when the run finishes.
//
// Sweeping benches additionally call Phase(label) at each sweep-point
// boundary: the dump then becomes {"phases": {label: <delta>...},
// "totals": <full registry>} where each delta holds only the counters and
// histograms touched during that phase (per-bucket subtraction), so one run
// yields per-configuration metrics instead of one conflated total.
class MetricsDump {
 public:
  MetricsDump(int& argc, char** argv);
  ~MetricsDump();
  MetricsDump(const MetricsDump&) = delete;
  MetricsDump& operator=(const MetricsDump&) = delete;

  // Close the current phase: everything recorded since the previous Phase()
  // call (or since construction) is dumped under `label`.  No-op when
  // --metrics-out was not given.
  void Phase(const std::string& label);

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  common::MetricsRegistry::Snapshot last_;
  std::vector<std::pair<std::string, std::string>> phases_;
};

}  // namespace loco::bench
