// File Metadata Server (FMS) — §3.1, §3.3.
//
// Holds file inodes keyed by (parent directory uuid + name); clients place
// files onto FMS servers with a consistent-hash ring over that key.  Two
// storage modes:
//
//   * Decoupled (default, "LocoFS-DF"): the inode is split into a 24-byte
//     access part and a 40-byte content part, each its own KV value with
//     fixed field offsets — single-field updates are byte patches and no
//     (de)serialization happens (§3.3.1/§3.3.3).
//   * Coupled ("LocoFS-CF", the Fig. 11 ablation): one variable-length
//     serialized value per inode, including the name and the per-block index
//     list §3.3.2 removes; every update deserializes, modifies, and
//     reserializes the whole record.
//
// File dirents (this directory's files that hash to this server) are one
// empty-valued record per file, keyed like the inode by directory uuid +
// name, in an ordered store striped by the uuid (core/layout.h).
//
// Concurrency: handlers may run on many TcpServer workers at once.  Create,
// Remove and InsertRaw serialize per directory (a lock table keyed by
// dir_uuid makes the existence check, the inode writes and the dirent record
// one step); attribute updates that read-modify-write one inode serialize
// per file key; everything else relies on the lock-striped KV stores
// (kvstore/striped_kv.h).
#pragma once

#include <atomic>
#include <functional>
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
#include "kvstore/kv.h"
#include "net/rpc.h"

namespace loco::core {

class FileMetadataServer final : public net::RpcHandler {
 public:
  struct Options {
    std::uint32_t sid = 0;   // this server's id (high bits of file uuids)
    bool decoupled = true;   // DF (true) vs CF (false)
    kv::KvBackend backend = kv::KvBackend::kHash;
    kv::KvOptions kv;
    // Post-construction wrapper applied to each store (fault injection:
    // daemons install kv::FaultyKv here when --fault-spec arms KV faults).
    std::function<std::unique_ptr<kv::Kv>(std::unique_ptr<kv::Kv>)> kv_decorator;
  };

  explicit FileMetadataServer(const Options& options);

  net::RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override;

  // Wire the hosting daemon's GC manager so kCtlGcStatus can answer.  The
  // manager must outlive the server.
  void SetGcManager(GcManager* gc) noexcept { gc_ = gc; }

  // The FMS keeps no per-client state, so there is nothing to drop.  Kept
  // as a no-op because perfbench/workloads.cc still wires it to
  // TcpServer::Options::on_client_disconnect.
  std::size_t DropClientSessions(std::uint64_t) { return 0; }

  // One incremental GC step (docs/HOUSEKEEPING.md, core/gc.h GcStepper):
  // apply queued repairs, else scan this server and detect invariants
  // I5–I7.  `dir_alive` probes the DMS for parent-directory liveness
  // (kDmsCheckUuids); orphan purges (I5, destructive) require the directory
  // to be seen dead in two consecutive harvests.  Called from a single
  // GcManager thread.
  GcStepResult GcStep(std::uint32_t budget, const UuidProbe& dir_alive);

  std::size_t FileCount() const;
  bool decoupled() const noexcept { return options_.decoupled; }
  // Aggregate KV statistics across this server's stores.
  kv::KvStats StoreStats() const;
  // Per-store introspection (Table 1 access-matrix test): which metadata
  // region an operation touched is visible in these stores' counters.
  // access/content are only present in decoupled mode; coupled only in CF.
  const kv::Kv* access_kv() const noexcept { return access_.get(); }
  const kv::Kv* content_kv() const noexcept { return content_.get(); }
  const kv::Kv* coupled_kv() const noexcept { return coupled_.get(); }
  const kv::Kv& dirent_kv() const noexcept { return *dirents_; }
  kv::Kv& mutable_dirent_kv() noexcept { return *dirents_; }

 private:
  // Read the full Attr of a file (mode-independent helper).
  Result<fs::Attr> GetAttrInternal(const std::string& key) const;

  net::RpcResponse Dispatch(std::uint16_t opcode, std::string_view payload);

  net::RpcResponse Create(std::string_view payload);
  net::RpcResponse Remove(std::string_view payload);
  net::RpcResponse GetAttr(std::string_view payload);
  net::RpcResponse Open(std::string_view payload);
  net::RpcResponse Chmod(std::string_view payload);
  net::RpcResponse Chown(std::string_view payload);
  net::RpcResponse Utimens(std::string_view payload);
  net::RpcResponse Access(std::string_view payload);
  net::RpcResponse SetSize(std::string_view payload);
  net::RpcResponse SetAtime(std::string_view payload);
  net::RpcResponse Readdir(std::string_view payload);
  net::RpcResponse ReaddirPlus(std::string_view payload);
  net::RpcResponse CheckEmpty(std::string_view payload);
  net::RpcResponse ReadRaw(std::string_view payload);
  net::RpcResponse InsertRaw(std::string_view payload);
  // fsck / admin surface (tools/loco_fsck).  The scans (kFmsScanFiles,
  // kFmsScanDirents) are served by snapshots_.
  net::RpcResponse RepairDirent(std::string_view payload);
  net::RpcResponse PurgeFile(std::string_view payload);
  net::RpcResponse CheckUuids(std::string_view payload);

  // Visits every file inode with its key and uuid.
  void ForEachFile(
      const std::function<void(std::string_view key, fs::Uuid uuid)>& fn) const;
  // The kFmsScanFiles payload (live scans, SnapshotBegin, the GC step).
  std::string ScanFilesPayload() const;

  Options options_;
  // Decoupled mode stores.
  std::unique_ptr<kv::Kv> access_;   // key -> access part (24 B)
  std::unique_ptr<kv::Kv> content_;  // key -> content part (40 B)
  // Coupled mode store.
  std::unique_ptr<kv::Kv> coupled_;  // key -> serialized whole inode
  // Both modes.
  std::unique_ptr<kv::Kv> dirents_;  // key -> empty: one record per file
  std::atomic<std::uint64_t> next_fid_{1};

  // Per-directory serialization (existence checks + dirent records), keyed
  // by dir_uuid; per-file serialization for inode read-modify-writes, keyed
  // by the file key's hash.
  common::LockTable dir_locks_{64};
  common::LockTable file_locks_{128};

  // Snapshot plane (kCtlSnapshotBegin/End): pinning takes scan_mu_
  // exclusively to materialize a consistent cut of both stores; every other
  // handler (and the GC harvest) holds it shared, so pinning waits out
  // in-flight mutations and never tears one.  Slots: files, dirents.
  mutable std::shared_mutex scan_mu_;
  SnapshotRing snapshots_;

  // Housekeeping: the GC step engine (created by the first GcStep) and the
  // hosting daemon's manager (kCtlGcStatus).
  std::unique_ptr<GcStepper> gc_steps_;
  GcManager* gc_ = nullptr;

  // server.fms<sid>.* op counters and server.fms<sid>.kv.* gauges.
  common::ServerOpCounters op_metrics_;
  std::vector<common::MetricsRegistry::GaugeHandle> kv_gauges_;
};

}  // namespace loco::core
