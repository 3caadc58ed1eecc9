// Shared scaffolding for the per-figure benchmark binaries.
//
// Every binary prints the paper's Table 2 stand-in (the active cluster
// model) in its banner, uses the paper's measured RTT (0.174 ms on 1 GbE)
// for normalization, and documents its scale-down factors inline.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/deploy.h"
#include "benchlib/mdtest.h"
#include "benchlib/table.h"
#include "common/clock.h"
#include "common/flags.h"

namespace loco::bench {

// The paper's measured round-trip time (Fig. 6 caption).
constexpr common::Nanos kPaperRtt = 174 * common::kMicro;

inline sim::ClusterConfig PaperCluster() {
  sim::ClusterConfig cfg;  // defaults model the Table 2 testbed
  cfg.net.rtt = kPaperRtt;
  return cfg;
}

inline void PrintClusterBanner(const std::string& title,
                               const std::string& what,
                               const sim::ClusterConfig& cluster) {
  PrintBanner(title, what);
  std::printf("cluster model (Table 2 stand-in): %s\n",
              cluster.Describe().c_str());
}

inline std::string RttX(double latency_ns) {
  return Table::Num(latency_ns / static_cast<double>(kPaperRtt), 2) + "x";
}

// Raw single-node KV throughput under the same CPU model the simulator
// charges the file systems (Figs. 1 and 9 reference lines): per-op CPU is
// measured for real and scaled by cpu_scale.  Two properties of the paper's
// reference (Kyoto Cabinet) are preserved: it is accessed in-process (no
// per-request RPC cost) and it serializes writers (hash/tree DB take a
// writer lock), so the reference is single-threaded regardless of cores.
// Value size matches the paper's ~200-byte metadata.
inline double RawKvIops(kv::KvBackend backend, const sim::ServerConfig& server,
                        int ops = 200'000) {
  auto made = kv::MakeKv(backend);
  auto kv = std::move(made).value();
  const std::string value(200, 'm');
  common::CpuTimer timer;
  for (int i = 0; i < ops; ++i) {
    (void)kv->Put("/dir/file_" + std::to_string(i), value);
  }
  const double per_op_ns =
      static_cast<double>(timer.ElapsedNanos()) / ops * server.cpu_scale;
  return 1e9 / per_op_ns;
}

// Latency of one op type for one system/server-count cell, single client
// (the Fig. 6 / Fig. 7 methodology).
inline double MeanLatencyNs(System system, int servers,
                            std::vector<fs::FsOp> phases, fs::FsOp measured,
                            int items, const sim::ClusterConfig& cluster) {
  MdtestConfig cfg;
  cfg.system = system;
  cfg.metadata_servers = servers;
  cfg.clients = 1;
  cfg.items_per_client = items;
  cfg.phases = std::move(phases);
  cfg.cluster = cluster;
  const MdtestResult result = RunMdtest(cfg);
  const PhaseResult* phase = result.Phase(measured);
  return phase != nullptr ? phase->latency.Mean() : 0;
}

}  // namespace loco::bench

// Convenience aliases for the bench binaries' main() functions (which sit
// outside namespace loco).
namespace sim = loco::sim;
namespace common = loco::common;
