// LocoFS wire protocol: opcode registry and payload layouts.
//
// Payloads are flat field tuples encoded with fs::Pack / fs::Unpack; the
// layout of each message is documented next to its opcode.  All requests
// that mutate or check permissions carry the caller Identity and (where the
// contract requires a timestamp) the client's clock reading.
#pragma once

#include <cstdint>
#include <vector>

namespace loco::core::proto {

// The d-inode lease term (§3.2.2): a kDmsLookup grants the caller a lease
// on the directory for this long, and the client caches the reply for the
// same term.
inline constexpr std::uint64_t kLeaseNs = 30ull * 1'000'000'000;

// --------------------------- DMS (Directory Metadata Server) ---------------
enum DmsOp : std::uint16_t {
  // [path, mode u32, Identity, ts u64] -> []
  kDmsMkdir = 1,
  // [path, Identity, check_files u8] -> [] ; check_files=1 requires the
  // caller to have already verified FMS emptiness (protocol contract).
  kDmsRmdir = 2,
  // Lookup a directory for use as a parent: checks exec on ancestors and
  // `want` bits on the target; optionally rejects when `shadow_name` exists
  // as a subdirectory (namespace unification).  The reply carries the
  // subdirectory names so lease holders keep enforcing the shadow check
  // locally for the lease lifetime.
  // [path, Identity, want u32, shadow_name] -> [Attr, subdir_names]
  kDmsLookup = 3,
  // [path, Identity] -> [Attr]
  kDmsStat = 4,
  // [path, Identity] -> [Attr of dir, entries] (subdirectories only)
  kDmsReaddir = 5,
  // [path, Identity, mode u32, ts u64] -> []
  kDmsChmod = 6,
  // [path, Identity, uid u32, gid u32, ts u64] -> []
  kDmsChown = 7,
  // [path, Identity, mtime u64, atime u64] -> []
  kDmsUtimens = 8,
  // [path, Identity, want u32] -> []
  kDmsAccess = 9,
  // Directory rename: relocates the whole subtree of d-inodes (B+-tree range
  // move, §3.4.3).  [from, to, Identity] -> [moved u64]
  kDmsRename = 10,
  // Bulk tree materialization (net/wire.h batch framing): one frame carries
  // N kDmsMkdir request tuples and runs them under a single namespace-lock
  // acquisition, so a client building a deep or wide tree pays the
  // shared-lock and dispatch overhead once.  Each sub-op succeeds or fails
  // alone (per-sub-op ErrCode); sub-ops may depend on earlier siblings
  // ("a", then "a/b") because they apply in order.
  // request sub-op  = kDmsMkdir request tuple
  // response sub-op = []
  kDmsBatchMkdir = 11,

  // -- cross-shard rename: two-phase commit over a persisted intent log
  //    (docs/SHARDING.md).  The client (or a recovery agent) drives:
  //    Prepare on the source shard, Commit on the destination shard, Finish
  //    back on the source.  Every step is idempotent and keyed by a client-
  //    minted transaction id, so crashed transfers are resolved by fsck/GC
  //    from the persisted intents alone. --
  // Validate the rename on the source shard, persist an outgoing intent
  // record, lock the subtree against other mutations, and return the packed
  // subtree: one entry per d-inode, Pack(rel_path, dinode_raw, names) where
  // rel_path is "" for the subtree root and "name" / "name/sub" below it,
  // and names lists the d-inode's subdirectory records.
  // [from, to, txid u64, Identity] -> [entries]
  kDmsRenamePrepare = 12,
  // Install the transferred subtree under `to` on the destination shard.
  // Persists an incoming marker first, installs children, installs the
  // subtree root *last* (so "root of `to` exists" is the durable commit
  // point), records `to` under its parent, then drops the marker.
  // [txid u64, to, Identity, entries] -> []
  kDmsRenameCommit = 13,
  // Source-side cleanup after a successful commit: delete the moved subtree
  // and the source parent's dirent record, drop the intent.  Unknown txid ->
  // kOk (a retry after completion).  [txid u64] -> []
  kDmsRenameFinish = 14,
  // Source-side rollback before commit: drop the intent and release the
  // subtree lock, leaving the source subtree untouched.  [txid u64] -> []
  kDmsRenameAbort = 15,
  // Destination-side rollback: drop the incoming marker; purge=1 also
  // deletes any partially installed d-inodes under the marker's `to` path.
  // [txid u64, purge u8] -> []
  kDmsAbortIncoming = 16,

  // -- fsck / admin (loco_fsck and the servers' own GC steps drive these
  //    through core/invariants.h; unauthenticated) --
  // [] -> [entries] ; entry = Pack(path, uuid) for every d-inode
  kDmsScanDirs = 20,
  // [] -> [entries] ; entry = Pack(dir_uuid, names) for every directory
  // that has dirent records
  kDmsScanDirents = 21,
  // Add (add=1) or remove (add=0) the record of `name` under the directory
  // at `dir_path`, re-checked under the directory's lock: an add needs the
  // child d-inode present and unlisted, a drop the reverse; otherwise
  // nothing changes.  [dir_path, name, add u8] -> [applied u8]
  kDmsRepairDirent = 22,
  // Drop every dirent record under a uuid whose d-inode no longer exists
  // (rmdir crash leftovers).  [dir_uuid] -> []
  kDmsDropDirents = 23,

  // Breaker gossip: a daemon (FMS/OSD — or the DMS itself via its startup
  // path) announces "I am up, incarnation `epoch`".  The DMS broadcasts a
  // wire::kNotifyServerUp to every notify session so clients close the
  // node's circuit breaker immediately instead of waiting out the half-open
  // probe interval.  [node u32, epoch u64] -> []
  kDmsAnnounce = 24,

  // Batched d-inode liveness probe (FMS GC, invariant I5: files whose parent
  // directory no longer exists).  Request entries are Pack(uuid); the reply
  // is one byte per entry, '\1' if a directory with that uuid exists.
  // [entries] -> [bitmap]
  kDmsCheckUuids = 25,

  // Dump this shard's pending rename-transfer state for fsck/GC recovery.
  // Optional [epoch u64] payload reads a pinned snapshot (kCtlSnapshotBegin)
  // like the other scan opcodes.  [] or [epoch u64] -> [entries] where
  // entry = Pack(kind u8, txid u64, from, to); kind 0 = outgoing intent
  // (this shard is the rename source), kind 1 = incoming marker (this shard
  // is the destination and the transfer may be partially installed).
  kDmsScanIntents = 26,
};

// ------------------------------ FMS (File Metadata Server) -----------------
enum FmsOp : std::uint16_t {
  // [dir_uuid, name, mode u32, Identity, ts u64] -> [file_uuid]
  kFmsCreate = 32,
  // [dir_uuid, name, Identity] -> [file_uuid]  (caller already holds parent-W)
  kFmsRemove = 33,
  // [dir_uuid, name] -> [Attr]
  kFmsGetAttr = 34,
  // [dir_uuid, name, Identity] -> [Attr] ; requires read permission
  kFmsOpen = 35,
  // [dir_uuid, name, Identity, mode u32, ts u64] -> []
  kFmsChmod = 36,
  // [dir_uuid, name, Identity, uid u32, gid u32, ts u64] -> []
  kFmsChown = 37,
  // [dir_uuid, name, Identity, mtime u64, atime u64] -> []
  kFmsUtimens = 38,
  // [dir_uuid, name, Identity, want u32] -> []
  kFmsAccess = 39,
  // Write-path metadata update: size = max(size, end) (or exact when
  // truncate u8 = 1), mtime = ts.  [dir_uuid, name, Identity, end u64,
  // truncate u8, ts u64] -> [file_uuid, new_size u64]
  kFmsSetSize = 40,
  // Read-path: atime = ts.  [dir_uuid, name, Identity, ts u64]
  //   -> [file_uuid, size u64]
  kFmsSetAtime = 41,
  // [dir_uuid] -> [entries] ; file entries hashed to this server
  kFmsReaddir = 42,
  // [dir_uuid] -> [] ; kNotEmpty if any file of this directory lives here
  kFmsCheckEmpty = 43,
  // Relocation support for f-rename: raw fixed-layout parts move between
  // servers without interpretation.
  // [dir_uuid, name] -> [access_raw, content_raw]
  kFmsReadRaw = 44,
  // [dir_uuid, name, access_raw, content_raw] -> []
  kFmsInsertRaw = 45,

  // -- batched metadata ops (net/wire.h batch framing) --
  // One frame carries N independent sub-ops; the response carries one
  // ErrCode + payload per sub-op, so a single bad entry fails alone.  A
  // malformed batch envelope (declared count disagreeing with the payload
  // bytes) is answered with kCorruption for the whole frame.
  // request sub-op  = kFmsCreate request tuple
  // response sub-op = [file_uuid]
  kFmsBatchCreate = 48,
  // request sub-op  = kFmsGetAttr request tuple ([dir_uuid, name])
  // response sub-op = [Attr]
  kFmsBatchStat = 49,
  // Readdir that returns attributes with the names in one round trip.
  // request = [dir_uuid] (plain tuple, not batch-framed); response = batch
  // items of [name, Attr] for every file of the directory on this server.
  kFmsReaddirPlus = 50,
  // Bulk write-path metadata update: the metadata half of a small-file
  // ingest (`PutMany`).  One frame carries N kFmsSetSize tuples; the reply
  // returns each file's uuid so the client can route the data half
  // (kObjBatchPut) by object placement.
  // request sub-op  = kFmsSetSize request tuple
  // response sub-op = [file_uuid, new_size u64]
  kFmsBatchSetSize = 51,

  // -- fsck / admin --
  // [] -> [entries] ; entry = Pack(dir_uuid, name, file_uuid) per file inode
  kFmsScanFiles = 56,
  // [] -> [entries] ; entry = Pack(dir_uuid, names) per directory with records
  kFmsScanDirents = 57,
  // Add or drop one dirent record, re-checked like kDmsRepairDirent against
  // the file inode.  [dir_uuid, name, add u8] -> [applied u8]
  kFmsRepairDirent = 58,
  // Unconditionally drop a file inode (both parts) and its dirent record.
  // [dir_uuid, name] -> [file_uuid] (0 when no inode was left)
  kFmsPurgeFile = 59,

  // Batched file-uuid liveness probe (OSD GC, invariant I9: leaked objects).
  // Request entries are Pack(uuid); the reply is one byte per entry, '\1' if
  // some file inode on this server carries that uuid.  [entries] -> [bitmap]
  kFmsCheckUuids = 60,
  // Retired with the FMS file sessions, never to be reused: 61, 62 and 244.
};

// ----------------------------------- Object store --------------------------
enum ObjOp : std::uint16_t {
  // [uuid, offset u64, data] -> []
  kObjWrite = 64,
  // [uuid, offset u64, length u64, size_hint u64] -> [data]
  kObjRead = 65,
  // [uuid, size u64] -> [] ; drop blocks beyond size
  kObjTruncate = 66,
  // Bulk small-object write (net/wire.h batch framing): one frame carries N
  // kObjWrite tuples, amortizing per-RPC dispatch for small-file ingest.
  // Device time for the whole batch is charged on the enclosing frame
  // (extra_service_ns sums the sub-op costs).
  // request sub-op  = kObjWrite request tuple ([uuid, offset u64, data])
  // response sub-op = []
  kObjBatchPut = 67,

  // -- fsck / admin --
  // [] -> [entries] ; entry = Pack(uuid u64, blocks u64) per stored object
  kObjScanObjects = 80,
  // [uuid] -> [deleted_blocks u64] ; drop every block of an object
  kObjPurge = 81,
};

// ------------------------------ Control plane -------------------------------
// Admin opcodes in the wire control range (240–255).  240 (kCtlHello) is
// consumed by the transport itself; everything above it is dispatched to the
// hosting service like any RPC, so each daemon answers for its own
// housekeeping state.
enum CtlOp : std::uint16_t {
  // GC progress of this daemon.  [] ->
  //   [running u8, cycles u64, ops u64, reclaimed u64, entries]
  //   entry = Pack(task_name, calls u64, ops u64, reclaimed u64)
  // kUnavailable when the daemon runs without a GC manager.
  kCtlGcStatus = 241,
  // Pin a point-in-time snapshot of this server's scan surface and return
  // its epoch.  Until the matching SnapshotEnd, scan opcodes called with
  // payload [epoch u64] serve the pinned cut while mutations proceed; scan
  // calls with an empty payload keep reading live state.  Snapshots are
  // bounded per server; pinning beyond the bound evicts the oldest.
  // [] -> [epoch u64]
  kCtlSnapshotBegin = 242,
  // Release a pinned snapshot.  Unknown epochs are ignored (the snapshot
  // may have been evicted).  [epoch u64] -> []
  kCtlSnapshotEnd = 243,
};

// Mutations eligible for the server-side idempotent-replay window
// (net::DedupWindow): a retried or duplicated delivery must apply exactly
// once and return the cached response.  Reads are naturally idempotent and
// excluded.  One shared list keeps the daemons simple; opcodes a given
// server never handles simply never match.
inline std::vector<std::uint16_t> IdempotentReplayOps() {
  return {kDmsMkdir,   kDmsRmdir,     kDmsChmod,    kDmsChown,
          kDmsUtimens, kDmsRename,    kDmsRepairDirent, kDmsDropDirents,
          kDmsBatchMkdir,
          kDmsRenamePrepare, kDmsRenameCommit, kDmsRenameFinish,
          kDmsRenameAbort, kDmsAbortIncoming,
          kFmsCreate,  kFmsRemove,    kFmsChmod,    kFmsChown,
          kFmsUtimens, kFmsSetSize,   kFmsSetAtime, kFmsInsertRaw,
          kFmsRepairDirent, kFmsPurgeFile, kFmsBatchCreate, kFmsBatchSetSize,
          kObjWrite,   kObjTruncate,  kObjPurge,    kObjBatchPut};
}

}  // namespace loco::core::proto
