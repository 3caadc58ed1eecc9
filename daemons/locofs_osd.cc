// Object store daemon.
//
//   locofs_osd [--listen host:port] [--block-bytes N] [--no-retain]
//              [--workers N] [--store-dir dir] [--fault-spec spec]
//              [--announce host:port] [--node N]
//              [--metrics-out file.json]
//
// --announce points at the DMS: once serving, the daemon reports its node id
// (--node; default 1000, core::Connect's first-osd id) and fresh epoch so
// the DMS can gossip the restart to clients, which reset this node's circuit
// breaker immediately.
//
// --gc starts the background housekeeping thread (docs/HOUSEKEEPING.md):
// incremental detection/reclaim of leaked objects (invariant I9).  The
// detector asks every FMS whether each object uuid is still referenced by
// some inode; point --gc-fms at the comma-separated FMS list.  --gc-ops
// caps the scan rate, --gc-batch sizes one step.
//
// --no-retain accounts block payloads without storing them (reads return
// zeros); use it for metadata-only benchmarks that push a lot of data.
// --workers sizes the request dispatch pool (at least 1; default: hardware
// concurrency); a lone cheap request, one whose opcode's last run took at
// most 50 µs, still runs on the event loop when a worker is idle
// (docs/NET.md).  ObjectStoreServer is thread-safe (striped block table,
// per-object locks), so it runs bare behind the pool.  --store-dir persists
// the block table across restarts; --fault-spec arms the deterministic
// fault plane (grammar in net/fault.h).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/object_store.h"
#include "core/proto.h"
#include "daemon_main.h"
#include "net/dedup.h"

int main(int argc, char** argv) {
  using namespace loco;

  std::string listen = "127.0.0.1:0";
  std::string block_str;
  std::string metrics_out;
  std::string workers_str;
  std::string store_dir;
  std::string fault_spec;
  std::string announce;
  std::string node_str;
  std::string gc_ops_str;
  std::string gc_batch_str;
  std::string gc_fms;
  bool gc_enabled = false;
  bool retain = true;
  for (int i = 1; i < argc; ++i) {
    if (common::FlagValue(argc, argv, &i, "--listen", &listen)) continue;
    if (common::FlagValue(argc, argv, &i, "--block-bytes", &block_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--metrics-out", &metrics_out)) continue;
    if (common::FlagValue(argc, argv, &i, "--workers", &workers_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--store-dir", &store_dir)) continue;
    if (common::FlagValue(argc, argv, &i, "--fault-spec", &fault_spec)) continue;
    if (common::FlagValue(argc, argv, &i, "--announce", &announce)) continue;
    if (common::FlagValue(argc, argv, &i, "--node", &node_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-ops", &gc_ops_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-batch", &gc_batch_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-fms", &gc_fms)) continue;
    if (std::strcmp(argv[i], "--gc") == 0) {
      gc_enabled = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-retain") == 0) {
      retain = false;
      continue;
    }
    std::fprintf(stderr,
                 "locofs_osd: unknown argument '%s'\n"
                 "usage: locofs_osd [--listen host:port] [--block-bytes N]"
                 " [--no-retain] [--workers N] [--store-dir dir]"
                 " [--fault-spec spec] [--announce host:port] [--node N]"
                 " [--gc] [--gc-ops RATE] [--gc-batch N]"
                 " [--gc-fms host:port[,host:port...]]"
                 " [--metrics-out file.json]\n",
                 argv[i]);
    return 2;
  }

  int workers = 0;
  if (!daemons::ParseWorkers("locofs_osd", workers_str, &workers)) return 2;
  std::unique_ptr<net::FaultInjector> fault;
  if (!daemons::ParseFaultSpec("locofs_osd", fault_spec, &fault)) return 2;

  core::ObjectStoreServer::Options options;
  options.retain_data = retain;
  options.kv.dir = store_dir;
  if (!block_str.empty()) {
    std::size_t block_bytes = 0;
    if (!common::ParseInt(block_str, &block_bytes) || block_bytes == 0) {
      std::fprintf(stderr, "locofs_osd: bad --block-bytes '%s'\n",
                   block_str.c_str());
      return 2;
    }
    options.block_bytes = block_bytes;
  }

  std::uint32_t node = 1000;  // core::Connect numbers osd nodes from 1000
  if (!node_str.empty()) {
    if (!common::ParseInt(node_str, &node)) {
      std::fprintf(stderr, "locofs_osd: bad --node '%s'\n", node_str.c_str());
      return 2;
    }
  }

  core::GcManager::Options gc_options;
  if (!daemons::ParseGcFlags("locofs_osd", gc_ops_str, gc_batch_str,
                             &gc_options)) {
    return 2;
  }

  core::ObjectStoreServer server(options);
  // Declared after the server it captures, so the GC thread stops (dtor)
  // first.
  core::GcManager gc(gc_options);
  if (gc_enabled) {
    if (gc_fms.empty()) {
      std::fprintf(stderr,
                   "locofs_osd: --gc needs --gc-fms so the leaked-object"
                   " detector can probe file-inode liveness\n");
      return 2;
    }
    core::UuidProbe file_probe = daemons::GcUuidProbe(
        "locofs_osd", "--gc-fms", core::proto::kFmsCheckUuids, gc_fms);
    if (!file_probe) return 2;
    server.SetGcManager(&gc);
    gc.AddTask("osd-housekeeping",
               [&server, file_probe](std::uint32_t budget) {
                 return server.GcStep(budget, file_probe);
               });
  }

  net::DedupWindow dedup(core::proto::IdempotentReplayOps());
  net::TcpServer::Options server_options;
  server_options.fault = fault.get();
  server_options.dedup = &dedup;
  server_options.epoch = daemons::NextEpoch(store_dir);
  const std::uint64_t epoch = server_options.epoch;
  return daemons::RunDaemon(
      "locofs_osd", &server, listen, metrics_out, workers, server_options,
      [&](net::TcpServer&) {
        if (!announce.empty()) {
          daemons::AnnounceToDms("locofs_osd", announce, node, epoch);
        }
      },
      gc_enabled ? &gc : nullptr);
}
