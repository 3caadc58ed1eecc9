// Directory Metadata Server (DMS) — §3.1, §3.2.
//
// A single DMS holds every directory inode, keyed by full path in a B+-tree
// KV (Kyoto Cabinet tree-DB stand-in), so:
//   * any directory is located with one local get (flattened tree);
//   * ancestor ACL checks for a whole path are local gets, never RPCs;
//   * a directory rename is an ordered range move (§3.4.3).
// Sub-directory dirents are one empty-valued record each, keyed by the
// parent directory's uuid + the entry name, in a separate B+-tree KV striped
// by the uuid (core/layout.h).
//
// Concurrency: handlers may run on many TcpServer workers at once.  A
// shared/exclusive namespace lock isolates Rename — which rewrites path keys
// across a whole subtree — from every other handler; mutations that touch a
// directory's dirent records or its children's existence (Mkdir, Rmdir)
// serialize on a striped lock table keyed by the directory path's hash; the
// remaining single-key attribute ops rely on the lock-striped KV stores
// (kvstore/striped_kv.h).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_table.h"

#include "common/metrics.h"
#include "core/gc.h"
#include "core/invariants.h"
#include "core/layout.h"
#include "core/lease_table.h"
#include "kvstore/kv.h"
#include "net/notify.h"
#include "net/rpc.h"

namespace loco::core {

class DirectoryMetadataServer final : public net::RpcHandler {
 public:
  struct Options {
    // Backend for the d-inode store: kBTree enables the rename range-move
    // optimization; kHash is the Fig. 14 comparison point.
    kv::KvBackend backend = kv::KvBackend::kBTree;
    kv::KvOptions kv;
    // Post-construction wrapper applied to each store (fault injection:
    // daemons install kv::FaultyKv here when --fault-spec arms KV faults).
    std::function<std::unique_ptr<kv::Kv>(std::unique_ptr<kv::Kv>)> kv_decorator;
    // Server id minted into this shard's directory uuids (the root reserves
    // 0xffff).  Each DMS shard must use a distinct sid so uuids stay unique
    // cluster-wide: shard i conventionally runs 0xfffe - i (--shard-id).
    std::uint32_t sid = 0xfffe;
  };

  DirectoryMetadataServer() : DirectoryMetadataServer(Options{}) {}
  explicit DirectoryMetadataServer(const Options& options);

  // Wire the push plane (net::TcpServer).  Until this is called — and for
  // clients that never asked for notify — mutations are visible to lease
  // holders only after the lease expires, exactly the pre-push behavior.
  // `notifier` must outlive the server; call before serving traffic.
  void SetNotifier(net::Notifier* notifier) noexcept { notifier_ = notifier; }

  net::RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override;
  net::RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                             const net::HandlerContext& ctx) override;

  // Wire the hosting daemon's GC manager so kCtlGcStatus can answer.  The
  // manager must outlive the server.
  void SetGcManager(GcManager* gc) noexcept { gc_ = gc; }

  // Disconnect hook (TcpServer::Options::on_notify_disconnect): a client's
  // push session died, so its lease watches are undeliverable — drop them
  // now instead of waiting for a mutation to discover the dead session.
  void DropClientLeases(std::uint64_t client) { leases_.Drop(client); }

  // One incremental GC step (docs/HOUSEKEEPING.md, core/gc.h GcStepper):
  // apply queued repairs, else scan this server and detect the DMS-local
  // invariants I1–I4 (I3 two-sighting confirmed).  Called from a single
  // GcManager thread.
  GcStepResult GcStep(std::uint32_t budget);

  // Store introspection for tests and benchmarks.
  const kv::Kv& dir_kv() const noexcept { return *dirs_; }
  const kv::Kv& dirent_kv() const noexcept { return *dirents_; }
  kv::Kv& mutable_dir_kv() noexcept { return *dirs_; }
  kv::Kv& mutable_dirent_kv() noexcept { return *dirents_; }
  std::size_t DirCount() const { return dirs_->Size(); }

  // One pending cross-shard rename transfer (docs/SHARDING.md), as persisted
  // in the intent log.  kind 0 = outgoing intent (this shard is the source),
  // kind 1 = incoming marker (this shard is the destination; `from` is empty
  // there — the marker only needs `to` and the txid for recovery).
  struct PendingRename {
    std::uint8_t kind = 0;
    std::uint64_t txid = 0;
    std::string from;
    std::string to;
  };
  // Snapshot of the pending transfers, for the hosting daemon's intent-
  // resolution GC task and tests.  (fsck reads the same state over the wire
  // via kDmsScanIntents.)
  std::vector<PendingRename> PendingRenames() const;

 private:
  // Resolve `path` as a directory: exec on every ancestor, `want` bits on
  // the target.  Returns the target's attributes.
  Result<fs::Attr> ResolveDir(std::string_view path, const fs::Identity& who,
                              std::uint32_t want) const;

  net::RpcResponse Dispatch(std::uint16_t opcode, std::string_view payload);

  // Post-success push-plane side effects for `opcode`: lease grants (Lookup)
  // and invalidation pushes (mutations).  No-op until SetNotifier.
  void NotifySideEffects(std::uint16_t opcode, std::string_view payload,
                         std::uint64_t client);
  // Push kNotifyInvalidate to every live watcher of `path` (and of the whole
  // subtree under it when `subtree`), excluding the originating `client`.
  void PushInvalidate(const std::string& path, bool subtree,
                      std::uint64_t client);
  // A live watch was evicted at the table cap: push a synthetic invalidation
  // so the holder resyncs now instead of trusting a cache entry whose
  // invalidation promise was just broken.
  void OnWatchEvicted(const std::string& path, std::uint64_t client);

  net::RpcResponse Mkdir(std::string_view payload);
  net::RpcResponse Rmdir(std::string_view payload);
  net::RpcResponse Lookup(std::string_view payload);
  net::RpcResponse Stat(std::string_view payload);
  net::RpcResponse Readdir(std::string_view payload);
  net::RpcResponse Chmod(std::string_view payload);
  net::RpcResponse Chown(std::string_view payload);
  net::RpcResponse Utimens(std::string_view payload);
  net::RpcResponse Access(std::string_view payload);
  net::RpcResponse Rename(std::string_view payload);
  // Cross-shard rename transfer (all run under ns_mu_ exclusive — they move,
  // install, or delete whole subtrees of path keys).
  net::RpcResponse RenamePrepare(std::string_view payload);
  net::RpcResponse RenameCommit(std::string_view payload);
  net::RpcResponse RenameFinish(std::string_view payload);
  net::RpcResponse RenameAbort(std::string_view payload);
  net::RpcResponse AbortIncoming(std::string_view payload);
  // fsck / admin surface (tools/loco_fsck).  The scans (kDmsScanDirs,
  // kDmsScanDirents, kDmsScanIntents) are served by snapshots_ from these
  // payloads, which SnapshotBegin and the GC step also materialize.
  net::RpcResponse RepairDirent(std::string_view payload);
  net::RpcResponse DropDirents(std::string_view payload);
  net::RpcResponse Announce(std::string_view payload);
  net::RpcResponse CheckUuids(std::string_view payload);
  std::string ScanDirsPayload();
  std::string ScanIntentsPayload() const;

  // True when `path` lies inside a subtree locked by a pending outgoing
  // intent or covered by an incoming transfer marker; mutations there answer
  // kStale until the transfer resolves.
  bool LockedForRename(std::string_view path) const;
  // Persist one intent-log record (kind/txid as in PendingRename) and mirror
  // it in the in-memory map; Erase drops both.
  bool PutIntent(std::uint8_t kind, std::uint64_t txid, std::string_view from,
                 std::string_view to);
  void EraseIntent(std::uint8_t kind, std::uint64_t txid);
  // Delete every d-inode at/under `root` plus the dirent records under
  // their uuids.
  void DeleteSubtree(const std::string& root);

  std::unique_ptr<kv::Kv> dirs_;     // full path -> 48-byte d-inode
  std::unique_ptr<kv::Kv> dirents_;  // dir uuid + subdir name -> empty
  // Cross-shard rename intent log: [kind u8 | txid u64] -> Pack(from, to).
  // Tiny (one record per in-flight transfer) but durable — recovery after a
  // crash is driven entirely from this store.
  std::unique_ptr<kv::Kv> intents_;
  std::atomic<std::uint64_t> next_fid_{2};
  std::uint32_t sid_ = 0xfffe;

  // In-memory mirror of intents_, keyed by (kind, txid).  Guarded by
  // rename_mu_ so read paths (LockedForRename, PendingRenames) never touch
  // the KV store.
  mutable std::mutex rename_mu_;
  std::map<std::pair<std::uint8_t, std::uint64_t>, PendingRename> pending_renames_;

  // Rename takes this exclusively (it moves path keys under every other
  // handler's feet); all other handlers take it shared.
  mutable std::shared_mutex ns_mu_;
  // Per-directory serialization for child create/remove and their dirent
  // records, keyed by the directory path's hash.
  common::LockTable dir_locks_{64};

  // Push plane: notify sink (owned by the hosting server) + lease watches.
  net::Notifier* notifier_ = nullptr;
  LeaseTable leases_;

  // Snapshot plane (kCtlSnapshotBegin/End): pinning takes ns_mu_ exclusively
  // (like Rename) so the cut is a point in time.  Slots: dirs, dirents,
  // intents.
  SnapshotRing snapshots_;

  // Housekeeping: the GC step engine (created by the first GcStep) and the
  // hosting daemon's manager (kCtlGcStatus).
  std::unique_ptr<GcStepper> gc_steps_;
  GcManager* gc_ = nullptr;

  common::ServerOpCounters op_metrics_{&common::MetricsRegistry::Default(),
                                       "server.dms"};
  common::Counter* lease_grants_ = &common::MetricsRegistry::Default()
                                        .GetCounter("server.dms.lease.grants");
  common::Counter* invalidations_pushed_ =
      &common::MetricsRegistry::Default().GetCounter(
          "server.dms.lease.invalidations_pushed");
  common::Counter* evict_resyncs_ =
      &common::MetricsRegistry::Default().GetCounter(
          "server.dms.lease.evict_resyncs");
  // server.dms.kv.* gauges aggregating both stores (RAII: unregistered with
  // the server).
  std::vector<common::MetricsRegistry::GaugeHandle> kv_gauges_;
};

}  // namespace loco::core
