// The live cluster and the three workloads of the benchmark.
//
// One Cluster is one in-process deployment: a DMS (BTreeKV), two decoupled
// FMS (HashKV) and one object store, each behind its own loopback
// net::TcpServer with 2 workers, persisting into a fresh directory with WAL
// appends and no fsync (the daemons' --store-dir policy).  Two closed-loop
// caller threads share one core::Connect mount and drive one LocoClient
// each.  A run is a sequence of cycles; each cycle sets up a fresh Cluster,
// runs the workload once on both callers, checks what it left, and tears
// the Cluster down, so state (and WAL size) never grows across cycles.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "kvstore/kv.h"
#include "net/dedup.h"
#include "net/tcp.h"
#include "trace.h"

namespace locobench {

constexpr int kCallers = 2;
constexpr int kServerWorkers = 2;

// Workload sizes.  --smoke shrinks every one of them.
struct Sizes {
  // small_dirs: directories per caller per cycle, files per directory,
  // StatMany calls per directory.
  int small_dirs = 12;
  int small_files = 100;
  int small_stat_batches = 4;
  // big_dir: entries in the shared directory, side directories per caller
  // (mkdir/rename samples), full listings per caller, StatMany width, stat
  // passes over the full directory.  WAL bytes grow with the square of the
  // size: 10,000 entries write about 1 GB per cycle, under the kernel's
  // background-writeback threshold on a 16 GB host (12,000 write 1.44 GB).
  int big_entries = 10000;
  int big_side_dirs = 48;
  int big_listings = 12;
  int big_stat_batch = 16;
  int big_stat_passes = 2;
  // batch_ingest: directories per caller per cycle, files per directory,
  // bytes per file, MkdirMany width, per-op tail files per directory,
  // read-back samples per caller.
  int ingest_dirs = 24;
  int ingest_files = 64;
  int ingest_bytes = 4096;
  int ingest_mkdir_batch = 16;
  int ingest_tail = 4;
  int ingest_readback = 32;

  static Sizes Smoke();
};

enum class Workload { kSmallDirs, kBigDir, kBatchIngest };
bool ParseWorkload(const std::string& name, Workload* out);

// What the callers of one cycle did.
struct CycleStats {
  std::array<std::vector<std::int64_t>, kOpKinds> latency_ns;
  std::uint64_t attempted = 0;  // client calls
  std::uint64_t failed = 0;     // calls that failed or were refused
  std::uint64_t ops = 0;        // completed ops; a batch sub-op counts as one
  std::vector<std::string> errors;  // first few failures and mismatches

  void Merge(CycleStats&& other);
};

class Cluster {
 public:
  // Sets up a fresh deployment persisting under `dir` (in memory when `dir`
  // is empty).  `traced` installs the timing KV decorator and routes the
  // clients through TracingChannel.
  static std::unique_ptr<Cluster> Start(const std::string& dir, bool traced,
                                        std::string* error);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  loco::core::LocoClient& client(int i) { return *clients_[i]; }

  // KV counters of the DMS, FMS 1 and FMS 2 (handler instances 0..2).
  std::vector<loco::kv::KvStats> MetadataStoreStats() const;
  // Requests shed or expired across every server.
  std::uint64_t ShedCount() const;
  std::uint64_t CacheHits() const;
  std::uint64_t CacheMisses() const;

 private:
  Cluster() = default;

  // Declaration order is teardown order in reverse: clients and the mount
  // go first, then the servers, then the handlers they call.
  std::unique_ptr<loco::core::DirectoryMetadataServer> dms_;
  std::vector<std::unique_ptr<loco::core::FileMetadataServer>> fms_;
  std::unique_ptr<loco::core::ObjectStoreServer> osd_;
  std::vector<std::unique_ptr<TracingHandler>> handlers_;
  std::vector<std::unique_ptr<loco::net::DedupWindow>> dedup_;
  std::vector<std::unique_ptr<loco::net::TcpServer>> servers_;
  std::unique_ptr<loco::core::MountHandle> mount_;
  std::unique_ptr<TracingChannel> channel_;
  std::vector<std::unique_ptr<loco::core::LocoClient>> clients_;
};

// Runs one cycle of `workload` on both callers and checks the namespace it
// leaves.  Returns the callers' merged stats; any failure or mismatch is in
// stats.failed / stats.errors.
CycleStats RunCycle(Workload workload, Cluster& cluster, const Sizes& sizes,
                    std::uint64_t seed, int cycle);

}  // namespace locobench
