// The namespace invariant engine shared by loco_fsck (core/fsck.h) and the
// background GC steps (core/gc.h; docs/HOUSEKEEPING.md).
//
// LocoFS leaves crash leftovers for later cleanup (§3.4), so this module
// decides what gets deleted.  Both drivers decode the fsck scan payloads
// into a ScanView — fsck every server's over RPC, a GC step its own
// server's in process — Detect the findings, confirm them with Sightings
// where a repair cannot re-check its finding, and repair through the admin
// RPCs of RepairCalls (ResolveRenameIntent for I10).  kDmsRepairDirent and
// kFmsRepairDirent re-check their finding under the serving locks
// (RepairDirentRecord) and change nothing once it no longer holds.
//
// Invariants (and the repair each finding maps to):
//   I1  every d-inode path except "/" has a parent d-inode
//         -> recreate each missing ancestor, shallowest first (kDmsMkdir,
//            root-owned, mode 0755)
//   I2  every DMS dirent record names a live child d-inode
//         -> drop the dangling record (kDmsRepairDirent add=0)
//   I3  no DMS dirent record sits under a dead directory uuid prefix
//         -> drop every record under that prefix (kDmsDropDirents)
//   I4  every d-inode except "/" has a record under its parent's uuid
//         -> put the missing record (kDmsRepairDirent add=1)
//   I5  every file inode's parent directory uuid is live
//         -> purge the file inode (kFmsPurgeFile) and its objects (kObjPurge)
//   I6  every file inode has a dirent record on its FMS
//         -> put the missing record (kFmsRepairDirent add=1)
//   I7  every FMS dirent record has a file inode on that server
//         -> drop the dangling record (kFmsRepairDirent add=0)
//   I8  a file uuid exists at exactly one (server, dir, name)
//         -> keep one deterministic winner, purge the other keys (stale
//            f-rename intermediates; data objects are NOT purged — the
//            surviving inode references them)
//   I9  every object-store uuid is referenced by some file inode
//         -> purge the leaked object's blocks (kObjPurge)
//   I10 no DMS shard holds a pending cross-shard rename intent or marker
//         -> resolve the transfer by its commit point (docs/SHARDING.md):
//            ResolveRenameIntent.
//
// A scan that holds any pending intent or marker yields only I10 findings:
// a transfer in flight makes the moved subtree look damaged to I1–I4, so it
// is resolved before any other check is trusted.  A partial scan (one GC
// server) runs only the invariants whose inputs it holds; a liveness probe
// answer stands in for the side the server cannot see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/shard.h"
#include "fs/types.h"
#include "kvstore/kv.h"
#include "net/rpc.h"

namespace loco::core {

enum class FsckFindingType : std::uint8_t {
  kMissingParent,     // I1: a directory missing above a live d-inode
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

struct FsckFinding {
  FsckFindingType type;
  // Repair coordinates: which server (index into the scan's DMS shards, FMS
  // or object stores; for DMS dirent findings, the shard the scanned
  // records live on) and which key.
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

  std::string Describe() const;
};

// ------------------------------------------------------------------ scan --

// One decoded scan: every server's (fsck) or one server's (GC step).
struct ScanView {
  // DMS side, merged across shards (uuids never collide between shards:
  // each shard mints from its own sid).  `dms` is set once a DMS scan is
  // decoded; the I1–I4, I8 and I10 detectors need it.
  bool dms = false;
  std::unordered_map<std::string, fs::Uuid> dir_by_path;
  std::unordered_map<std::uint64_t, std::string> path_by_uuid;
  // Which shard each d-inode was scanned from ("/" is replicated; the first
  // scan — shard 0, the canonical root — wins).
  std::unordered_map<std::string, std::size_t> dir_shard;
  struct DirentList {
    std::size_t shard;  // shard the records were scanned from
    fs::Uuid uuid;
    std::vector<std::string> names;
  };
  std::vector<DirentList> dms_dirents;
  // Pending cross-shard rename records (kind 0 = outgoing intent, 1 =
  // incoming marker; tombstones are dropped by the decoder).
  struct Intent {
    std::size_t shard;
    std::uint8_t kind;
    std::uint64_t txid;
    std::string from, to;
  };
  std::vector<Intent> intents;
  // Per FMS.
  struct FmsState {
    // (dir uuid, name) -> file uuid
    std::map<std::pair<std::uint64_t, std::string>, fs::Uuid> files;
    // dir uuid -> names of its dirent records
    std::map<std::uint64_t, std::set<std::string>> dirents;
  };
  std::vector<FmsState> fms;
  // Per object store: uuid -> block count.
  std::vector<std::map<std::uint64_t, std::uint64_t>> objects;
  // Probe answers standing in for the side a server-local scan cannot see:
  // the live directory uuids among its files' parents (FMS GC,
  // kDmsCheckUuids) and the live file uuids among its objects (OSD GC,
  // kFmsCheckUuids).  Unset when no probe answered: I5 / I9 then skip.
  std::optional<std::unordered_set<std::uint64_t>> live_dirs;
  std::optional<std::unordered_set<std::uint64_t>> live_files;
};

// Decode one server's scan replies into `view` (kCorruption on a malformed
// payload).  An FMS or object store becomes the view's next one.
Status DecodeDmsScan(std::size_t shard, std::string_view dirs,
                     std::string_view dirents, std::string_view intents,
                     ScanView* view);
Status DecodeFmsScan(std::string_view files, std::string_view dirents,
                     ScanView* view);
Status DecodeObjectScan(std::string_view objects, ScanView* view);

// ---------------------------------------------------------------- detect --

// Every finding of `view`, in repair order.  `shards` places DMS paths (a
// server-local scan passes a one-shard map).
std::vector<FsckFinding> Detect(const ScanView& view, const ShardMap& shards);

// Two-sighting confirmation, keyed by a finding's canonical identity.
class Sightings {
 public:
  // Returns the findings to act on: each one `confirm` rejects, plus each
  // one it selects that the previous call also selected.  Remembers this
  // call's selected findings; a scan that could not look (a failed probe
  // yields no I5/I9 findings) therefore breaks the run of sightings.
  std::vector<FsckFinding> Confirm(
      const std::vector<FsckFinding>& findings,
      const std::function<bool(FsckFindingType)>& confirm);

 private:
  std::set<std::string> prev_;
};

// ---------------------------------------------------------------- repair --

enum class ServerRole : std::uint8_t { kDms, kFms, kObj };

struct RepairCall {
  ServerRole role;
  std::size_t server;  // index among that role's servers
  std::uint16_t opcode;
  std::string payload;
};

// The admin RPCs that repair `f` (I1–I9; I10 goes through
// ResolveRenameIntent).  `object_stores` is the cluster's object-store
// count: an I5 purge also drops the file's objects when it is nonzero.
std::vector<RepairCall> RepairCalls(const FsckFinding& f,
                                    const ShardMap& shards,
                                    std::size_t object_stores);

enum class RepairOutcome : std::uint8_t {
  kApplied,  // the repair changed the store
  kSkipped,  // the finding no longer held: nothing changed
  kFailed,   // the call failed
};
RepairOutcome ClassifyRepair(std::uint16_t opcode,
                             const net::RpcResponse& resp);

// I10 commit-point rule: the destination root present with the source
// root's uuid (or the source root already gone) means the transfer
// committed — roll forward; anything else rolls back.
bool RollsForward(const fs::Uuid* dst_root, const fs::Uuid* src_root);

// Resolve one pending transfer: forward drops the destination marker, then
// Finishes the source; back fences the destination first (AbortIncoming
// with purge) and Aborts the source only after the fence succeeded.
// `call` reaches DMS shard `shard`.  Returns the RPCs applied.
using ShardCall = std::function<net::RpcResponse(
    std::size_t shard, std::uint16_t opcode, std::string payload)>;
Result<std::uint64_t> ResolveRenameIntent(const FsckFinding& f,
                                          const ShardCall& call);

// ------------------------------------------------------- server surface --

// The guarded repair behind kDmsRepairDirent / kFmsRepairDirent, run under
// the directory lock the serving handlers take for the record: put (add) or
// delete the dirent record at `key` only while its finding still holds — an
// add needs the child present and unlisted, a drop the reverse.  Replies
// [applied u8].
net::RpcResponse RepairDirentRecord(kv::Kv* records, const std::string& key,
                                    bool add, bool child_exists);

// Pinned scan snapshots (kCtlSnapshotBegin/End): epoch -> one point-in-time
// cut of a server's scan payloads.  At most 4 are pinned; pinning another
// evicts the oldest (a crashed fsck must not pin memory forever).
class SnapshotRing {
 public:
  // kCtlSnapshotBegin: pin `payloads` (slot i = the reply of the server's
  // i-th scan opcode) and reply with the new epoch.
  net::RpcResponse Begin(std::vector<std::string> payloads);
  // kCtlSnapshotEnd: release an epoch; unknown epochs were evicted: fine.
  net::RpcResponse End(std::string_view request);
  // A scan opcode: an empty request reads `live()`, [epoch u64] the pinned
  // payload in `slot` (kNotFound once evicted or released).
  net::RpcResponse Scan(std::string_view request, std::size_t slot,
                        const std::function<std::string()>& live);

 private:
  std::mutex mu_;
  std::uint64_t next_epoch_ = 1;
  std::map<std::uint64_t, std::vector<std::string>> pinned_;
};

// kDmsCheckUuids / kFmsCheckUuids reply: one byte per requested uuid, '\1'
// once Mark()ed.
class UuidBitmap {
 public:
  // False on a malformed request.
  bool Parse(std::string_view request);
  void Mark(fs::Uuid uuid);
  std::string Take() { return std::move(bitmap_); }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> wanted_;
  std::string bitmap_;
};

}  // namespace loco::core
