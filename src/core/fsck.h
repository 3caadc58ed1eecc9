// loco_fsck — the cluster-wide driver of the namespace invariant engine
// (core/invariants.h, which lists invariants I1–I10 and their repairs).
//
// LocoFS accepts transient crash states rather than paying for distributed
// transactions (§3.4): an interrupted create may leave a dirent entry with
// no inode, an interrupted remove an inode with no dirent, an interrupted
// f-rename the same uuid at two FMS keys, and a kill -9'd client data
// objects no inode references.  FsckRunner fetches every server's scan —
// the DMS shards, every FMS and every object store — over their fsck RPCs
// (core/proto.h), Detects over the merged view, and with Options::repair
// sends each finding's admin RPCs, iterating scan→repair (repairs can
// cascade) until a scan is clean or the passes run out.  Offline runs need
// a quiesced cluster: per-server scans have no cross-server atomicity.
//
// Live mode (Options::live) pins a point-in-time snapshot on every server
// each pass (kCtlSnapshotBegin/End).  The per-server cuts are not mutually
// consistent — an op in flight between two Begin calls shows up as a
// one-pass finding — so live mode acts only on findings seen in two
// consecutive passes (Sightings): in-flight ops complete between passes,
// real damage persists.  The background GC applies the same rule to the
// repairs it cannot re-check (docs/HOUSEKEEPING.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/invariants.h"
#include "core/shard.h"
#include "net/rpc.h"

namespace loco::core {

struct FsckReport {
  std::vector<FsckFinding> findings;  // from the final scan
  std::uint64_t repairs = 0;          // repair RPCs applied (all passes)
  std::uint32_t passes = 0;           // scan passes performed

  bool clean() const noexcept { return findings.empty(); }
};

class FsckRunner {
 public:
  struct Config {
    // DMS shard set in shard order (must match the clients' ordering —
    // placement is positional; docs/SHARDING.md).
    std::vector<net::NodeId> dms = {0};
    std::vector<net::NodeId> fms;
    std::vector<net::NodeId> object_stores;
  };
  struct Options {
    bool repair = false;     // false = report only (dry run)
    bool live = false;       // scan pinned snapshots; two-pass confirmation
    std::uint32_t max_passes = 5;
  };

  FsckRunner(net::Channel& channel, Config config);

  // Scan (and with options.repair, iteratively repair) the cluster.  Errors
  // only on RPC/scan failure — findings are data, not errors.
  Result<FsckReport> Run(const Options& options);

 private:
  // Scan the live stores (epochs == nullptr) or the pinned epochs, one per
  // server: the DMS shards, then the FMS, then the object stores.
  Result<ScanView> Scan(const std::vector<std::uint64_t>* epochs);
  // Live mode: pin every server, scan the pinned cut, release.
  Result<ScanView> ScanPinned();
  // Applies every finding's repair; returns the number of repairs applied.
  Result<std::uint64_t> Repair(const std::vector<FsckFinding>& findings);

  // fsck traffic is housekeeping: tagged background so a saturated server
  // sheds it before any foreground request (the run reports the error and
  // the operator retries when load drops).
  net::RpcResponse Call(net::NodeId node, std::uint16_t opcode,
                        std::string payload);

  net::Channel& channel_;
  Config config_;
  ShardMap shards_;
};

}  // namespace loco::core
