// loco_fsck — offline namespace consistency checker and repairer.
//
// LocoFS accepts transient crash states rather than paying for distributed
// transactions (§3.4): an interrupted create may leave a dirent entry with
// no inode (file-less dirent), an interrupted remove an inode with no dirent
// (orphan), an interrupted f-rename the same uuid at two FMS keys, and a
// kill -9'd client data objects no inode references.  This runner scans the
// DMS, every FMS, and every object store through their fsck/admin RPCs
// (core/proto.h), cross-checks the invariants below, and optionally repairs
// violations using the same idempotent admin mutations.
//
// Invariants checked (and the repair applied with --repair):
//   I1  every d-inode path except "/" has a parent d-inode
//         -> recreate the missing parent (root-owned, mode 0755)
//   I2  every DMS dirent record names a live child d-inode
//         -> delete the dangling record
//   I3  no DMS dirent record sits under a dead directory uuid prefix
//         -> delete every record under that prefix
//   I4  every d-inode except "/" has a record under its parent's uuid
//         -> put the missing record
//   I5  every file inode's parent directory uuid is live
//         -> purge the file inode and its data objects
//   I6  every file inode has a dirent record on its FMS
//         -> put the missing record
//   I7  every FMS dirent record has a file inode on that server
//         -> delete the dangling record (purge it when the directory is dead)
//   I8  a file uuid exists at exactly one (server, dir, name)
//         -> keep one deterministic winner, purge the other keys (stale
//            f-rename intermediates; data objects are NOT purged — the
//            surviving inode references them)
//   I9  every object-store uuid is referenced by some file inode
//         -> purge the leaked object's blocks
//   I10 no DMS shard holds a pending cross-shard rename intent or marker
//         -> resolve the transfer by its commit point (docs/SHARDING.md):
//            destination root present = roll forward (Finish the source,
//            drop the marker), absent = roll back (fence + purge the
//            destination first, then abort the source).  I10 findings are
//            resolved before any other invariant is trusted — a transfer in
//            flight makes the subtree look damaged to I1-I4.
//
// Repairs can cascade (purging a duplicate may orphan a dirent entry), so a
// repairing run iterates scan→repair until a scan is clean, up to a bounded
// number of passes.  The cluster must be quiesced: scans are per-server
// snapshots with no cross-server atomicity, exactly like any offline fsck.
//
// Live mode (Options::live) drops the quiesce requirement.  Each pass pins a
// point-in-time snapshot on every server (kCtlSnapshotBegin/End), scans the
// pinned epochs, and releases them.  Per-server snapshots are individually
// consistent but not mutually so: an op in flight between two Begin calls
// (a create that reached the FMS but whose parent scan predates it) shows up
// as a spurious one-pass finding.  Live mode therefore acts only on findings
// seen in two consecutive passes — in-flight ops complete between passes,
// while real damage persists — which is the same two-cycle confirmation the
// background GC uses (docs/HOUSEKEEPING.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/shard.h"
#include "fs/types.h"
#include "net/rpc.h"

namespace loco::core {

enum class FsckFindingType : std::uint8_t {
  kMissingParent,     // I1: d-inode whose parent path has no d-inode
  kDanglingDmsDirent, // I2: DMS dirent name without a child d-inode
  kDeadDirentList,    // I3: DMS dirent records under a dead uuid
  kOrphanDir,         // I4: d-inode without a record in its parent
  kOrphanFile,        // I5: file inode under a dead directory uuid
  kMissingFmsDirent,  // I6: file inode without its FMS dirent record
  kDanglingFmsDirent, // I7: FMS dirent name without a file inode
  kDuplicateUuid,     // I8: same file uuid at more than one FMS key
  kLeakedObject,      // I9: object data no file inode references
  kRenameIntent,      // I10: pending cross-shard rename transfer
};

const char* FsckFindingName(FsckFindingType type) noexcept;

struct FsckFinding {
  FsckFindingType type;
  // Repair coordinates: which server (index into Config::fms /
  // Config::object_stores; for DMS dirent findings, the shard the scanned
  // list lives on) and which key.
  std::size_t server = 0;
  std::string path;       // DMS findings: directory path (I10: `from`)
  std::string name;       // dirent / file name (I10: `to`)
  fs::Uuid dir_uuid{0};   // FMS findings: parent directory uuid
  fs::Uuid file_uuid{0};  // file / object uuid
  // I10 (kRenameIntent) coordinates: the transfer's txid, the shards on each
  // side, which durable records were seen, and the resolution direction the
  // commit-point rule picked.
  std::uint64_t txid = 0;
  std::size_t src_shard = 0;
  std::size_t dst_shard = 0;
  bool has_intent = false;   // outgoing intent seen on src_shard
  bool has_marker = false;   // incoming marker seen on dst_shard
  bool roll_forward = false;
  // Live mode: client ids holding an open session on this (dir, name) — who
  // pins the file a repair would touch.  Empty for offline runs and for
  // findings no session covers.
  std::vector<std::uint64_t> holders;

  std::string Describe() const;
};

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
  struct Snapshot;
  // Pinned snapshot epochs, one per server (parallel to Config's vectors).
  struct Epochs {
    std::vector<std::uint64_t> dms;
    std::vector<std::uint64_t> fms;
    std::vector<std::uint64_t> object_stores;
  };

  // Scan the live stores (epochs == nullptr) or the pinned epochs.
  Result<Snapshot> Scan(const Epochs* epochs);
  Result<Epochs> PinSnapshots();
  void ReleaseSnapshots(const Epochs& epochs);
  Result<FsckReport> RunLive(const Options& options);
  // Live mode: attach session-holder client ids (kCtlSessionList) to every
  // finding whose (server, dir uuid, name) an open session covers.
  void AnnotateSessionHolders(std::vector<FsckFinding>* findings);
  std::vector<FsckFinding> Analyze(const Snapshot& snap) const;
  // Applies every finding's repair; returns the number of repair RPCs.
  Result<std::uint64_t> Repair(const std::vector<FsckFinding>& findings);

  // Blocking call helper over the async channel.
  Result<std::string> Call(net::NodeId node, std::uint16_t opcode,
                           std::string payload);

  net::NodeId ObjFor(fs::Uuid uuid) const {
    return config_.object_stores[uuid.raw() % config_.object_stores.size()];
  }
  // Owning shard for a directory path (same positional placement as
  // LocoClient::DmsFor).
  std::size_t DmsShardOf(std::string_view path) const {
    return shards_.ShardOf(path);
  }

  net::Channel& channel_;
  Config config_;
  ShardMap shards_;
};

}  // namespace loco::core
