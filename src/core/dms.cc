#include "core/dms.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/codec.h"
#include "common/hash.h"
#include "core/proto.h"
#include "fs/path.h"
#include "fs/wire.h"
#include "kvstore/striped_kv.h"
#include "net/wire.h"

namespace loco::core {

namespace {

using net::BadRequest;
using net::Fail;
using net::Ok;
using net::OkPayload;

// Intent-log key: [kind u8 | txid u64] (see dms.h PendingRename).
std::string IntentKey(std::uint8_t kind, std::uint64_t txid) {
  std::string key(9, '\0');
  key[0] = static_cast<char>(kind);
  common::StoreAt<std::uint64_t>(&key, 1, txid);
  return key;
}

bool PathInSubtree(std::string_view path, std::string_view root) {
  if (root.empty()) return false;
  if (path == root) return true;
  return path.size() > root.size() && path.substr(0, root.size()) == root &&
         path[root.size()] == '/';
}

// Lock-table key for a directory path.  Paths (not uuids) name directories
// here so a lock taken before resolution still guards the right directory.
std::uint64_t PathLockKey(std::string_view path) {
  return common::WyMix(path, 0xfeed);
}

}  // namespace

DirectoryMetadataServer::DirectoryMetadataServer(const Options& options)
    // Cap evictions must not silently drop an invalidation promise: the
    // table's eviction callback is a targeted resync push.  It fires outside
    // the table's lock (see LeaseTable::Grant), so the Drop() re-entry on a
    // dead push session cannot deadlock.
    : leases_([this](const std::string& path, std::uint64_t client) {
        OnWatchEvicted(path, client);
      }) {
  sid_ = options.sid;
  // Each store gets its own subdirectory so their WALs never collide.  The
  // dirent records use "dirent_records", not the concatenated lists' old
  // "dirents": a store directory written in that format is never replayed
  // as records.
  kv::KvOptions dirs_opt = options.kv;
  kv::KvOptions dirents_opt = options.kv;
  kv::KvOptions intents_opt = options.kv;
  if (!options.kv.dir.empty()) {
    dirs_opt.dir = options.kv.dir + "/dirs";
    dirents_opt.dir = options.kv.dir + "/dirent_records";
    intents_opt.dir = options.kv.dir + "/intents";
    std::error_code ec;
    std::filesystem::create_directories(dirs_opt.dir, ec);
    std::filesystem::create_directories(dirents_opt.dir, ec);
    std::filesystem::create_directories(intents_opt.dir, ec);
  }
  dirs_ = std::move(kv::MakeStripedKv(options.backend, dirs_opt)).value();
  // One record per subdirectory, striped by the parent's uuid so a listing
  // is one ordered scan of one stripe (layout.h).
  dirents_ = std::move(kv::MakeStripedKv(kv::KvBackend::kBTree, dirents_opt,
                                         kv::kStripes, kDirentRouteBytes))
                 .value();
  // The rename intent log stays tiny (one record per in-flight cross-shard
  // transfer); a single stripe avoids 16 extra WAL files per daemon.
  intents_ =
      std::move(kv::MakeStripedKv(kv::KvBackend::kHash, intents_opt, 1)).value();
  if (options.kv_decorator) {
    dirs_ = options.kv_decorator(std::move(dirs_));
    dirents_ = options.kv_decorator(std::move(dirents_));
  }
  // Reload pending cross-shard transfers: after a crash these drive the
  // roll-forward / roll-back decision (docs/SHARDING.md recovery table).
  intents_->ForEach([this](std::string_view key, std::string_view value) {
    if (key.size() != 9) return true;
    PendingRename p;
    p.kind = static_cast<std::uint8_t>(key[0]);
    p.txid = common::LoadAt<std::uint64_t>(key, 1);
    if (!fs::Unpack(value, p.from, p.to)) return true;
    pending_renames_[{p.kind, p.txid}] = std::move(p);
    return true;
  });
  // Recover the uuid allocator: it must never reissue a live fid.
  std::uint64_t max_fid = 1;
  dirents_->ForEach([&max_fid](std::string_view key, std::string_view) {
    const fs::Uuid uuid(common::LoadAt<std::uint64_t>(key, 0));
    max_fid = std::max(max_fid, uuid.fid());
    return true;
  });
  dirs_->ForEach([&max_fid](std::string_view, std::string_view value) {
    max_fid = std::max(max_fid, DirInodeLayout::Parse(value).uuid.fid());
    return true;
  });
  next_fid_ = max_fid + 1;

  kv_gauges_ = kv::RegisterKvStatsGauges(
      &common::MetricsRegistry::Default(), "server.dms.kv",
      [this] { return dirs_->stats() + dirents_->stats(); });

  // The root directory always exists.
  if (!dirs_->Contains("/")) {
    fs::Attr root;
    root.is_dir = true;
    root.mode = 0777;
    root.uid = 0;
    root.gid = 0;
    root.uuid = fs::kRootUuid;
    (void)dirs_->Put("/", DirInodeLayout::Make(root));
  }
}

Result<fs::Attr> DirectoryMetadataServer::ResolveDir(std::string_view path,
                                                     const fs::Identity& who,
                                                     std::uint32_t want) const {
  if (!fs::IsValidPath(path)) return ErrStatus(ErrCode::kInvalid);
  std::string value;
  // Ancestor walk: every level is a local KV get — the single-DMS ACL
  // benefit the paper describes (§3.1) and the depth cost Fig. 13 measures.
  for (const std::string& ancestor : fs::Ancestors(path)) {
    LOCO_RETURN_IF_ERROR(dirs_->Get(ancestor, &value));
    const fs::Attr attr = DirInodeLayout::Parse(value);
    if (!fs::CheckPermission(who, attr.mode, attr.uid, attr.gid, fs::kModeExec)) {
      return ErrStatus(ErrCode::kPermission);
    }
  }
  LOCO_RETURN_IF_ERROR(dirs_->Get(std::string(path), &value));
  const fs::Attr attr = DirInodeLayout::Parse(value);
  if (want != 0 &&
      !fs::CheckPermission(who, attr.mode, attr.uid, attr.gid, want)) {
    return ErrStatus(ErrCode::kPermission);
  }
  return attr;
}

net::RpcResponse DirectoryMetadataServer::Handle(std::uint16_t opcode,
                                                 std::string_view payload) {
  return HandleCtx(opcode, payload, net::HandlerContext{});
}

net::RpcResponse DirectoryMetadataServer::HandleCtx(
    std::uint16_t opcode, std::string_view payload,
    const net::HandlerContext& ctx) {
  const common::ServerOpCounters::PerOp& m = op_metrics_.For(opcode);
  m.calls->Add();
  net::RpcResponse resp = Dispatch(opcode, payload);
  if (resp.code != ErrCode::kOk) {
    m.errors->Add();
  } else {
    NotifySideEffects(opcode, payload, ctx.client_id);
  }
  return resp;
}

net::RpcResponse DirectoryMetadataServer::Dispatch(std::uint16_t opcode,
                                                   std::string_view payload) {
  // Rename rewrites path keys across a whole subtree; no per-directory lock
  // covers that, so it excludes every other handler.  Snapshot pinning rides
  // the same exclusion to materialize a point-in-time cut of both stores.
  if (opcode == proto::kDmsRename) {
    std::unique_lock ns(ns_mu_);
    return Rename(payload);
  }
  // The cross-shard transfer steps install or delete whole subtrees of path
  // keys, so they take the same exclusion Rename does.
  switch (opcode) {
    case proto::kDmsRenamePrepare: {
      std::unique_lock ns(ns_mu_);
      return RenamePrepare(payload);
    }
    case proto::kDmsRenameCommit: {
      std::unique_lock ns(ns_mu_);
      return RenameCommit(payload);
    }
    case proto::kDmsRenameFinish: {
      std::unique_lock ns(ns_mu_);
      return RenameFinish(payload);
    }
    case proto::kDmsRenameAbort: {
      std::unique_lock ns(ns_mu_);
      return RenameAbort(payload);
    }
    case proto::kDmsAbortIncoming: {
      std::unique_lock ns(ns_mu_);
      return AbortIncoming(payload);
    }
    default: break;
  }
  if (opcode == proto::kCtlSnapshotBegin) {
    std::unique_lock ns(ns_mu_);
    return snapshots_.Begin({ScanDirsPayload(), DirentScanPayload(*dirents_),
                             ScanIntentsPayload()});
  }
  std::shared_lock ns(ns_mu_);
  switch (opcode) {
    case proto::kDmsMkdir: return Mkdir(payload);
    case proto::kDmsBatchMkdir:
      // Bulk tree materialization: the sub-ops run the single-op Mkdir (same
      // per-parent lock, same rollback) in order, all inside this one shared
      // namespace-lock acquisition, so a batch may create "a", then "a/b".
      return net::wire::ServeBatch(
          payload, [this](std::string_view sub) { return Mkdir(sub); });
    case proto::kDmsRmdir: return Rmdir(payload);
    case proto::kDmsLookup: return Lookup(payload);
    case proto::kDmsStat: return Stat(payload);
    case proto::kDmsReaddir: return Readdir(payload);
    case proto::kDmsChmod: return Chmod(payload);
    case proto::kDmsChown: return Chown(payload);
    case proto::kDmsUtimens: return Utimens(payload);
    case proto::kDmsAccess: return Access(payload);
    case proto::kDmsRename: return Rename(payload);
    case proto::kDmsScanDirs:
      return snapshots_.Scan(payload, 0, [this] { return ScanDirsPayload(); });
    case proto::kDmsScanDirents:
      return snapshots_.Scan(payload, 1,
                             [this] { return DirentScanPayload(*dirents_); });
    case proto::kDmsScanIntents:
      return snapshots_.Scan(payload, 2,
                             [this] { return ScanIntentsPayload(); });
    case proto::kDmsRepairDirent: return RepairDirent(payload);
    case proto::kDmsDropDirents: return DropDirents(payload);
    case proto::kDmsAnnounce: return Announce(payload);
    case proto::kDmsCheckUuids: return CheckUuids(payload);
    case proto::kCtlSnapshotEnd: return snapshots_.End(payload);
    case proto::kCtlGcStatus: return GcManager::StatusReply(gc_);
    default: return Fail(ErrCode::kUnsupported);
  }
}

// ----------------------------------------------------------- push plane --

void DirectoryMetadataServer::NotifySideEffects(std::uint16_t opcode,
                                                std::string_view payload,
                                                std::uint64_t client) {
  if (notifier_ == nullptr) return;
  switch (opcode) {
    case proto::kDmsLookup: {
      // A successful Lookup is a lease grant — remember who to invalidate.
      if (client == 0) return;  // anonymous peer: no push session possible
      std::string path, shadow_name;
      fs::Identity who;
      std::uint32_t want = 0;
      if (!fs::Unpack(payload, path, who, want, shadow_name)) return;
      leases_.Grant(path, client,
                    static_cast<std::uint64_t>(common::CpuTimer::Now()));
      lease_grants_->Add();
      return;
    }
    case proto::kDmsMkdir: {
      std::string path;
      std::uint32_t mode = 0;
      fs::Identity who;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, path, mode, who, ts)) return;
      // The parent's leased subdir list grew.
      PushInvalidate(std::string(fs::ParentPath(path)), false, client);
      return;
    }
    case proto::kDmsBatchMkdir: {
      // One push per distinct parent whose leased subdir list may have
      // grown.  Pushing for a sub-op that failed (kExists etc.) is merely a
      // spurious re-lookup for the holder, never a missed invalidation.
      std::vector<std::string_view> subops;
      if (!net::wire::DecodeBatchRequest(payload, &subops)) return;
      std::set<std::string> parents;
      for (const std::string_view sub : subops) {
        std::string path;
        std::uint32_t mode = 0;
        fs::Identity who;
        std::uint64_t ts = 0;
        if (!fs::Unpack(sub, path, mode, who, ts)) continue;
        parents.emplace(fs::ParentPath(path));
      }
      for (const std::string& parent : parents) {
        PushInvalidate(parent, false, client);
      }
      return;
    }
    case proto::kDmsRmdir: {
      std::string path;
      fs::Identity who;
      std::uint8_t files_checked = 0;
      if (!fs::Unpack(payload, path, who, files_checked)) return;
      PushInvalidate(path, false, client);
      PushInvalidate(std::string(fs::ParentPath(path)), false, client);
      return;
    }
    case proto::kDmsChmod: {
      std::string path;
      fs::Identity who;
      std::uint32_t mode = 0;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, path, who, mode, ts)) return;
      PushInvalidate(path, false, client);
      return;
    }
    case proto::kDmsChown: {
      std::string path;
      fs::Identity who;
      std::uint32_t uid = 0, gid = 0;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, path, who, uid, gid, ts)) return;
      PushInvalidate(path, false, client);
      return;
    }
    case proto::kDmsUtimens: {
      std::string path;
      fs::Identity who;
      std::uint64_t mtime = 0, atime = 0;
      if (!fs::Unpack(payload, path, who, mtime, atime)) return;
      PushInvalidate(path, false, client);
      return;
    }
    case proto::kDmsRename: {
      std::string from, to;
      fs::Identity who;
      if (!fs::Unpack(payload, from, to, who)) return;
      // Every lease under the moved subtree names a path that no longer
      // exists; both parents' subdir lists changed.
      PushInvalidate(from, true, client);
      PushInvalidate(std::string(fs::ParentPath(from)), false, client);
      PushInvalidate(std::string(fs::ParentPath(to)), false, client);
      return;
    }
    case proto::kDmsRenameCommit: {
      // The destination parent's leased subdir list grew.
      std::uint64_t txid = 0;
      std::string to;
      fs::Identity who;
      std::vector<std::string> entries;
      if (!fs::Unpack(payload, txid, to, who, entries)) return;
      PushInvalidate(std::string(fs::ParentPath(to)), false, client);
      return;
    }
    default:
      return;
  }
}

void DirectoryMetadataServer::PushInvalidate(const std::string& path,
                                             bool subtree,
                                             std::uint64_t client) {
  const std::vector<std::uint64_t> targets = leases_.Collect(
      path, subtree, client,
      static_cast<std::uint64_t>(common::CpuTimer::Now()));
  if (targets.empty()) return;
  net::InvalidateEvent event;
  event.path = path;
  event.subtree = subtree;
  event.wall_ts_ns = static_cast<std::uint64_t>(common::WallClockNs());
  const std::string bytes = net::EncodeInvalidate(event);
  for (const std::uint64_t target : targets) {
    if (notifier_->PushNotify(target, net::wire::kNotifyInvalidate, bytes)) {
      invalidations_pushed_->Add();
    } else {
      // No live push session: its watches are undeliverable, drop them all.
      leases_.Drop(target);
    }
  }
}

void DirectoryMetadataServer::OnWatchEvicted(const std::string& path,
                                             std::uint64_t client) {
  // The evicted holder keeps serving its cached entry until the lease times
  // out unless told otherwise — and the table just forgot it exists, so no
  // future mutation will tell it.  Close the gap with a synthetic
  // invalidation now; a client without a push session simply rides out the
  // lease timeout exactly as before the push plane existed.
  if (notifier_ == nullptr) return;
  net::InvalidateEvent event;
  event.path = path;
  event.subtree = false;
  event.wall_ts_ns = static_cast<std::uint64_t>(common::WallClockNs());
  if (notifier_->PushNotify(client, net::wire::kNotifyInvalidate,
                            net::EncodeInvalidate(event))) {
    evict_resyncs_->Add();
  } else {
    leases_.Drop(client);
  }
}

net::RpcResponse DirectoryMetadataServer::Mkdir(std::string_view payload) {
  std::string path;
  std::uint32_t mode = 0;
  fs::Identity who;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, path, mode, who, ts)) return BadRequest();
  if (!fs::IsValidPath(path) || path == "/") return Fail(ErrCode::kInvalid);
  if (LockedForRename(path)) return Fail(ErrCode::kStale);

  // Serialize against sibling mkdirs and a concurrent rmdir of the parent:
  // existence check, d-inode put, and dirent append are one critical
  // section per parent directory.
  const std::string parent_path(fs::ParentPath(path));
  const auto guard = dir_locks_.Lock(PathLockKey(parent_path));
  auto parent = ResolveDir(parent_path, who, fs::kModeWrite | fs::kModeExec);
  if (!parent.ok()) return Fail(parent.code());
  if (dirs_->Contains(path)) return Fail(ErrCode::kExists);

  fs::Attr attr;
  attr.is_dir = true;
  attr.mode = mode;
  attr.uid = who.uid;
  attr.gid = who.gid;
  attr.ctime = attr.mtime = attr.atime = ts;
  attr.uuid = fs::Uuid::Make(
      sid_, next_fid_.fetch_add(1, std::memory_order_relaxed));
  if (!dirs_->Put(path, DirInodeLayout::Make(attr)).ok()) {
    return Fail(ErrCode::kIo);
  }

  // Record the new subdirectory under its parent.
  if (!dirents_->Put(DirentKey(parent->uuid, fs::BaseName(path)), {}).ok()) {
    // Roll back the d-inode: without its dirent record the directory would
    // be invisible to Readdir yet block any future mkdir of the same path.
    (void)dirs_->Delete(path);
    return Fail(ErrCode::kIo);
  }
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Rmdir(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint8_t files_checked = 0;
  if (!fs::Unpack(payload, path, who, files_checked)) return BadRequest();
  if (!fs::IsValidPath(path) || path == "/") return Fail(ErrCode::kInvalid);
  if (LockedForRename(path)) return Fail(ErrCode::kStale);

  // Lock the parent (its dirent list shrinks) and the target (a concurrent
  // mkdir inside it locks the same slot as its parent); LockPair orders the
  // two slots, so overlapping rmdirs cannot deadlock.
  const std::string parent_lock_path(fs::ParentPath(path));
  const auto guard =
      dir_locks_.LockPair(PathLockKey(parent_lock_path), PathLockKey(path));

  // Contract order: existence/emptiness before the parent write check.
  auto attr_or = ResolveDir(path, who, 0);
  if (!attr_or.ok()) return Fail(attr_or.code());
  const fs::Attr attr = *attr_or;

  // Subdirectory emptiness is local; file emptiness was verified by the
  // client against every FMS (files_checked is the protocol attestation).
  if (HasDirents(*dirents_, attr.uuid)) return Fail(ErrCode::kNotEmpty);
  if (files_checked == 0) return Fail(ErrCode::kInvalid);

  auto parent = ResolveDir(fs::ParentPath(path), who, fs::kModeWrite);
  if (!parent.ok()) return Fail(parent.code());

  (void)dirs_->Delete(path);
  (void)dirents_->Delete(DirentKey(parent->uuid, fs::BaseName(path)));
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Lookup(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint32_t want = 0;
  std::string shadow_name;
  if (!fs::Unpack(payload, path, who, want, shadow_name)) return BadRequest();
  auto attr = ResolveDir(path, who, want);
  if (!attr.ok()) return Fail(attr.code());
  if (!shadow_name.empty() &&
      dirents_->Contains(DirentKey(attr->uuid, shadow_name))) {
    return Fail(ErrCode::kExists);
  }
  // The reply carries the subdirectory names so the client can keep
  // enforcing the shadow check locally for the lease lifetime (§3.2.2).
  return OkPayload(fs::Pack(*attr, ListDirents(*dirents_, attr->uuid)));
}

net::RpcResponse DirectoryMetadataServer::Stat(std::string_view payload) {
  std::string path;
  fs::Identity who;
  if (!fs::Unpack(payload, path, who)) return BadRequest();
  auto attr = ResolveDir(path, who, 0);
  if (!attr.ok()) return Fail(attr.code());
  return OkPayload(fs::Pack(*attr));
}

net::RpcResponse DirectoryMetadataServer::Readdir(std::string_view payload) {
  std::string path;
  fs::Identity who;
  if (!fs::Unpack(payload, path, who)) return BadRequest();
  auto attr = ResolveDir(path, who, fs::kModeRead);
  if (!attr.ok()) return Fail(attr.code());
  std::vector<fs::DirEntry> entries;
  for (std::string& name : ListDirents(*dirents_, attr->uuid)) {
    entries.push_back(fs::DirEntry{std::move(name), true});
  }
  return OkPayload(fs::Pack(*attr, entries));
}

net::RpcResponse DirectoryMetadataServer::Chmod(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint32_t mode = 0;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, path, who, mode, ts)) return BadRequest();
  if (LockedForRename(path)) return Fail(ErrCode::kStale);
  auto attr = ResolveDir(path, who, 0);
  if (!attr.ok()) return Fail(attr.code());
  if (who.uid != 0 && who.uid != attr->uid) return Fail(ErrCode::kPermission);
  // Fixed-offset patch: ctime and mode are contiguous (bytes 0..12).
  std::string patch(12, '\0');
  common::StoreAt<std::uint64_t>(&patch, 0, ts);
  common::StoreAt<std::uint32_t>(&patch, 8, mode);
  (void)dirs_->PatchValue(path, DirInodeLayout::kCtime, patch);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Chown(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint32_t uid = 0, gid = 0;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, path, who, uid, gid, ts)) return BadRequest();
  if (LockedForRename(path)) return Fail(ErrCode::kStale);
  // Chown writes two separate patches (uid/gid, then ctime); keep the pair
  // atomic against a concurrent chown of the same directory.
  const auto guard = dir_locks_.Lock(PathLockKey(path));
  auto attr = ResolveDir(path, who, 0);
  if (!attr.ok()) return Fail(attr.code());
  if (who.uid != 0 && !(who.uid == attr->uid && uid == attr->uid)) {
    return Fail(ErrCode::kPermission);
  }
  std::string ids(8, '\0');
  common::StoreAt<std::uint32_t>(&ids, 0, uid);
  common::StoreAt<std::uint32_t>(&ids, 4, gid);
  (void)dirs_->PatchValue(path, DirInodeLayout::kUid, ids);
  std::string ctime(8, '\0');
  common::StoreAt<std::uint64_t>(&ctime, 0, ts);
  (void)dirs_->PatchValue(path, DirInodeLayout::kCtime, ctime);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Utimens(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint64_t mtime = 0, atime = 0;
  if (!fs::Unpack(payload, path, who, mtime, atime)) return BadRequest();
  if (LockedForRename(path)) return Fail(ErrCode::kStale);
  auto attr = ResolveDir(path, who, 0);
  if (!attr.ok()) return Fail(attr.code());
  if (who.uid != 0 && who.uid != attr->uid &&
      !fs::CheckPermission(who, attr->mode, attr->uid, attr->gid,
                           fs::kModeWrite)) {
    return Fail(ErrCode::kPermission);
  }
  std::string times(16, '\0');
  common::StoreAt<std::uint64_t>(&times, 0, mtime);
  common::StoreAt<std::uint64_t>(&times, 8, atime);
  (void)dirs_->PatchValue(path, DirInodeLayout::kMtime, times);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Access(std::string_view payload) {
  std::string path;
  fs::Identity who;
  std::uint32_t want = 0;
  if (!fs::Unpack(payload, path, who, want)) return BadRequest();
  auto attr = ResolveDir(path, who, want);
  if (!attr.ok()) return Fail(attr.code());
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::Rename(std::string_view payload) {
  std::string from, to;
  fs::Identity who;
  if (!fs::Unpack(payload, from, to, who)) return BadRequest();
  if (!fs::IsValidPath(from) || !fs::IsValidPath(to) || from == "/" ||
      to == "/") {
    return Fail(ErrCode::kInvalid);
  }
  if (to.size() > from.size() && to.substr(0, from.size()) == from &&
      to[from.size()] == '/') {
    return Fail(ErrCode::kInvalid);  // destination inside source subtree
  }
  if (from == to) return OkPayload(fs::Pack(std::uint64_t{0}));
  if (LockedForRename(from) || LockedForRename(to)) {
    return Fail(ErrCode::kStale);
  }

  auto src_parent = ResolveDir(fs::ParentPath(from), who,
                               fs::kModeWrite | fs::kModeExec);
  if (!src_parent.ok()) return Fail(src_parent.code());
  std::string value;
  if (!dirs_->Get(from, &value).ok()) return Fail(ErrCode::kNotFound);
  auto dst_parent = ResolveDir(fs::ParentPath(to), who,
                               fs::kModeWrite | fs::kModeExec);
  if (!dst_parent.ok()) return Fail(dst_parent.code());
  if (dirs_->Contains(to)) return Fail(ErrCode::kExists);

  // Relocate the subtree's d-inodes.  With the B+-tree backend this is an
  // ordered range scan of exactly the subtree (§3.4.3); with the hash
  // backend ScanPrefix degrades to a full table walk (Fig. 14's contrast).
  // Children (files and the subtree's dirent records) are keyed by uuid and
  // never move (§3.4.2).
  std::vector<kv::Entry> subtree;
  (void)dirs_->ScanPrefix(from + "/", 0, &subtree);
  std::uint64_t moved = 0;
  for (auto& [old_key, inode] : subtree) {
    std::string new_key = to + old_key.substr(from.size());
    (void)dirs_->Delete(old_key);
    (void)dirs_->Put(new_key, inode);
    ++moved;
  }
  (void)dirs_->Delete(from);
  (void)dirs_->Put(to, value);
  ++moved;

  // Move the entry from the source parent's records to the destination's.
  (void)dirents_->Delete(DirentKey(src_parent->uuid, fs::BaseName(from)));
  (void)dirents_->Put(DirentKey(dst_parent->uuid, fs::BaseName(to)), {});
  return OkPayload(fs::Pack(moved));
}

// ------------------------------------------ cross-shard rename transfer --
//
// The client drives Prepare (source) -> Commit (destination) -> Finish
// (source); every step is idempotent, keyed by a client-minted txid, and
// leaves a durable record (outgoing intent on the source, incoming marker on
// the destination) so fsck/GC can resolve a transfer abandoned at any crash
// point.  The commit installs the subtree root *last*: "the root of `to`
// exists on the destination" is therefore the transaction's durable commit
// point — present means roll forward (Finish), absent means roll back
// (AbortIncoming purge + Abort).  See docs/SHARDING.md.

bool DirectoryMetadataServer::LockedForRename(std::string_view path) const {
  std::lock_guard<std::mutex> lock(rename_mu_);
  for (const auto& [key, p] : pending_renames_) {
    if (p.kind == 0 && PathInSubtree(path, p.from)) return true;
    if (p.kind == 1 && PathInSubtree(path, p.to)) return true;
  }
  return false;
}

bool DirectoryMetadataServer::PutIntent(std::uint8_t kind, std::uint64_t txid,
                                        std::string_view from,
                                        std::string_view to) {
  if (!intents_->Put(IntentKey(kind, txid),
                     fs::Pack(std::string(from), std::string(to)))
           .ok()) {
    return false;
  }
  PendingRename p;
  p.kind = kind;
  p.txid = txid;
  p.from = std::string(from);
  p.to = std::string(to);
  std::lock_guard<std::mutex> lock(rename_mu_);
  pending_renames_[{kind, txid}] = std::move(p);
  return true;
}

void DirectoryMetadataServer::EraseIntent(std::uint8_t kind,
                                          std::uint64_t txid) {
  (void)intents_->Delete(IntentKey(kind, txid));
  std::lock_guard<std::mutex> lock(rename_mu_);
  pending_renames_.erase({kind, txid});
}

void DirectoryMetadataServer::DeleteSubtree(const std::string& root) {
  std::vector<kv::Entry> subtree;
  (void)dirs_->ScanPrefix(root + "/", 0, &subtree);
  for (const auto& [key, inode] : subtree) {
    (void)DeleteDirents(dirents_.get(), DirInodeLayout::Parse(inode).uuid);
    (void)dirs_->Delete(key);
  }
  std::string inode;
  if (dirs_->Get(root, &inode).ok()) {
    (void)DeleteDirents(dirents_.get(), DirInodeLayout::Parse(inode).uuid);
    (void)dirs_->Delete(root);
  }
}

std::vector<DirectoryMetadataServer::PendingRename>
DirectoryMetadataServer::PendingRenames() const {
  std::vector<PendingRename> out;
  std::lock_guard<std::mutex> lock(rename_mu_);
  out.reserve(pending_renames_.size());
  for (const auto& [key, p] : pending_renames_) out.push_back(p);
  return out;
}

net::RpcResponse DirectoryMetadataServer::RenamePrepare(
    std::string_view payload) {
  std::string from, to;
  std::uint64_t txid = 0;
  fs::Identity who;
  if (!fs::Unpack(payload, from, to, txid, who)) return BadRequest();
  if (!fs::IsValidPath(from) || !fs::IsValidPath(to) || from == "/" ||
      to == "/" || txid == 0) {
    return Fail(ErrCode::kInvalid);
  }
  if (PathInSubtree(to, from)) return Fail(ErrCode::kInvalid);

  // A retry of an already-prepared txid re-packages the (still locked, so
  // unchanged) subtree.  Any *other* pending transfer overlapping `from`
  // blocks this one.
  bool retry = false;
  {
    std::lock_guard<std::mutex> lock(rename_mu_);
    for (const auto& [key, p] : pending_renames_) {
      if (p.kind == 0 && p.txid == txid && p.from == from && p.to == to) {
        retry = true;
        continue;
      }
      if (p.kind == 0 && (PathInSubtree(from, p.from) ||
                          PathInSubtree(p.from, from))) {
        return Fail(ErrCode::kStale);
      }
    }
  }

  auto src_parent =
      ResolveDir(fs::ParentPath(from), who, fs::kModeWrite | fs::kModeExec);
  if (!src_parent.ok()) return Fail(src_parent.code());
  std::string root_inode;
  if (!dirs_->Get(from, &root_inode).ok()) return Fail(ErrCode::kNotFound);

  // Package the subtree: one entry per d-inode, with the names of its
  // subdirectory records riding along (the uuids move to the destination
  // shard with their directories).  rel_path is "" for the subtree root.
  std::vector<std::string> entries;
  auto package = [this, &entries](std::string rel, std::string_view inode) {
    entries.push_back(fs::Pack(
        std::move(rel), std::string(inode),
        ListDirents(*dirents_, DirInodeLayout::Parse(inode).uuid)));
  };
  package("", root_inode);
  std::vector<kv::Entry> subtree;
  (void)dirs_->ScanPrefix(from + "/", 0, &subtree);
  for (const auto& [key, inode] : subtree) {
    package(key.substr(from.size() + 1), inode);
  }

  if (!retry && !PutIntent(0, txid, from, to)) return Fail(ErrCode::kIo);
  return OkPayload(fs::Pack(entries));
}

net::RpcResponse DirectoryMetadataServer::RenameCommit(
    std::string_view payload) {
  std::uint64_t txid = 0;
  std::string to;
  fs::Identity who;
  std::vector<std::string> entries;
  if (!fs::Unpack(payload, txid, to, who, entries)) return BadRequest();
  if (!fs::IsValidPath(to) || to == "/" || txid == 0 || entries.empty()) {
    return Fail(ErrCode::kInvalid);
  }

  // A tombstone fences a commit that lost the race with rollback: once the
  // client (or fsck/GC) aborted this txid here, a late-arriving or retried
  // commit must not materialize the subtree — the source may already have
  // been rolled back or re-renamed.
  {
    std::lock_guard<std::mutex> lock(rename_mu_);
    if (pending_renames_.count({2, txid}) != 0) return Fail(ErrCode::kStale);
  }

  auto dst_parent =
      ResolveDir(fs::ParentPath(to), who, fs::kModeWrite | fs::kModeExec);
  if (!dst_parent.ok()) return Fail(dst_parent.code());
  if (dirs_->Contains(to)) {
    // Either a genuine name collision or a retry of a commit that already
    // completed.  Our own completed commit left (or is about to drop) the
    // incoming marker; distinguish by txid.
    bool ours = false;
    {
      std::lock_guard<std::mutex> lock(rename_mu_);
      ours = pending_renames_.count({1, txid}) != 0;
    }
    if (!ours) return Fail(ErrCode::kExists);
    EraseIntent(1, txid);
    return Ok();
  }

  // Durable order: marker first (so a crash mid-install is recognizably a
  // partial transfer), children next, the subtree root *last* (the commit
  // point), then the parent dirent record, then the marker drop.
  if (!PutIntent(1, txid, "", to)) return Fail(ErrCode::kIo);
  std::string root_inode;
  for (const std::string& entry : entries) {
    std::string rel, inode;
    std::vector<std::string> names;
    if (!fs::Unpack(entry, rel, inode, names)) {
      return BadRequest();  // marker stays; fsck rolls the partial back
    }
    if (rel.empty()) {
      root_inode = inode;
    } else if (!dirs_->Put(to + "/" + rel, inode).ok()) {
      return Fail(ErrCode::kIo);
    }
    const fs::Uuid uuid = DirInodeLayout::Parse(inode).uuid;
    for (const std::string& name : names) {
      (void)dirents_->Put(DirentKey(uuid, name), {});
    }
  }
  if (root_inode.empty()) return Fail(ErrCode::kInvalid);
  if (!dirs_->Put(to, root_inode).ok()) return Fail(ErrCode::kIo);

  (void)dirents_->Put(DirentKey(dst_parent->uuid, fs::BaseName(to)), {});
  EraseIntent(1, txid);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::RenameFinish(
    std::string_view payload) {
  std::uint64_t txid = 0;
  if (!fs::Unpack(payload, txid)) return BadRequest();
  PendingRename p;
  {
    std::lock_guard<std::mutex> lock(rename_mu_);
    auto it = pending_renames_.find({0, txid});
    if (it == pending_renames_.end()) return Ok();  // already finished
    p = it->second;
  }
  // The destination owns the subtree now: delete the source copy, drop the
  // source parent's record of it, drop the intent.
  std::string parent_inode;
  if (dirs_->Get(std::string(fs::ParentPath(p.from)), &parent_inode).ok()) {
    (void)dirents_->Delete(DirentKey(DirInodeLayout::Parse(parent_inode).uuid,
                                     fs::BaseName(p.from)));
  }
  DeleteSubtree(p.from);
  // Push while `from` is still known (Finish carries only the txid, so the
  // generic NotifySideEffects path cannot recover the paths afterwards).
  // client=0 never matches a real push session, so nobody is excluded.
  if (notifier_ != nullptr) {
    PushInvalidate(p.from, true, 0);
    PushInvalidate(std::string(fs::ParentPath(p.from)), false, 0);
  }
  EraseIntent(0, txid);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::RenameAbort(
    std::string_view payload) {
  std::uint64_t txid = 0;
  if (!fs::Unpack(payload, txid)) return BadRequest();
  // Pre-commit rollback: the source subtree was never touched, so dropping
  // the intent (and with it the mutation lock) is the whole cleanup.
  EraseIntent(0, txid);
  return Ok();
}

net::RpcResponse DirectoryMetadataServer::AbortIncoming(
    std::string_view payload) {
  std::uint64_t txid = 0;
  std::uint8_t purge = 0;
  if (!fs::Unpack(payload, txid, purge)) return BadRequest();
  // Tombstone the txid unconditionally — even when no marker exists yet.
  // The commit this abort outruns may still be queued (a client timeout does
  // not mean the frame was dropped); the tombstone makes it bounce with
  // kStale instead of resurrecting a rolled-back subtree.  Tombstones are a
  // 9-byte key each and only ever created for failed transfers, so they are
  // kept forever rather than aged.
  if (!PutIntent(2, txid, "", "")) return Fail(ErrCode::kIo);
  PendingRename p;
  {
    std::lock_guard<std::mutex> lock(rename_mu_);
    auto it = pending_renames_.find({1, txid});
    if (it == pending_renames_.end()) return Ok();  // commit completed or
                                                    // never started here
    p = it->second;
  }
  // Purge only a *partial* install: if the subtree root exists the commit
  // completed and the transfer must roll forward — drop just the marker.
  if (purge != 0 && !dirs_->Contains(p.to)) DeleteSubtree(p.to);
  EraseIntent(1, txid);
  return Ok();
}

std::string DirectoryMetadataServer::ScanIntentsPayload() const {
  std::vector<std::string> entries;
  for (const PendingRename& p : PendingRenames()) {
    entries.push_back(fs::Pack(p.kind, p.txid, p.from, p.to));
  }
  return fs::Pack(entries);
}

// ----------------------------------------------------- fsck / admin surface --

std::string DirectoryMetadataServer::ScanDirsPayload() {
  // Full d-inode inventory for loco_fsck.
  std::vector<std::string> entries;
  dirs_->ForEach([&entries](std::string_view key, std::string_view value) {
    entries.push_back(
        fs::Pack(std::string(key), DirInodeLayout::Parse(value).uuid));
    return true;
  });
  return fs::Pack(entries);
}

net::RpcResponse DirectoryMetadataServer::CheckUuids(std::string_view payload) {
  UuidBitmap bitmap;
  if (!bitmap.Parse(payload)) return BadRequest();
  dirs_->ForEach([&bitmap](std::string_view, std::string_view value) {
    bitmap.Mark(DirInodeLayout::Parse(value).uuid);
    return true;
  });
  return OkPayload(bitmap.Take());
}

net::RpcResponse DirectoryMetadataServer::RepairDirent(std::string_view payload) {
  std::string dir_path, name;
  std::uint8_t add = 0;
  if (!fs::Unpack(payload, dir_path, name, add)) return BadRequest();
  if (!fs::IsValidPath(dir_path) || name.empty()) return Fail(ErrCode::kInvalid);

  // Re-checked under the lock Mkdir/Rmdir hold for `dir_path` (I4 adds,
  // I2 drops).  A child mid-Mkdir never looks dangling: its d-inode is
  // written before its record.
  const auto guard = dir_locks_.Lock(PathLockKey(dir_path));
  std::string value;
  if (!dirs_->Get(dir_path, &value).ok()) {
    return OkPayload(fs::Pack(std::uint8_t{0}));  // the directory is gone
  }
  return RepairDirentRecord(
      dirents_.get(), DirentKey(DirInodeLayout::Parse(value).uuid, name),
      add != 0, dirs_->Contains(fs::JoinPath(dir_path, name)));
}

net::RpcResponse DirectoryMetadataServer::DropDirents(std::string_view payload) {
  fs::Uuid uuid;
  if (!fs::Unpack(payload, uuid)) return BadRequest();
  // Only reasonable against a uuid whose d-inode is gone (rmdir crash
  // leftovers); fsck verifies that before asking.
  (void)DeleteDirents(dirents_.get(), uuid);
  return Ok();
}

// --------------------------------------------------------- housekeeping --

GcStepResult DirectoryMetadataServer::GcStep(std::uint32_t budget) {
  if (!gc_steps_) {
    gc_steps_ = std::make_unique<GcStepper>(ServerRole::kDms, "gc.dms");
  }
  return gc_steps_->Step(budget, *this, [this](ScanView* view) {
    // Under the shared namespace lock Rename (the only op that moves path
    // keys) is excluded, so the path<->uuid mapping cannot tear.
    std::string dirs, dirents, intents;
    {
      std::shared_lock ns(ns_mu_);
      dirs = ScanDirsPayload();
      dirents = DirentScanPayload(*dirents_);
      intents = ScanIntentsPayload();
    }
    return DecodeDmsScan(0, dirs, dirents, intents, view);
  });
}

net::RpcResponse DirectoryMetadataServer::Announce(std::string_view payload) {
  std::uint32_t node = 0;
  std::uint64_t epoch = 0;
  if (!fs::Unpack(payload, node, epoch)) return BadRequest();
  // Gossip the restart to every notify session so clients close the node's
  // circuit breaker immediately.  Without a notifier this is a harmless
  // no-op: breakers fall back to the half-open probe interval.
  if (notifier_ != nullptr) {
    net::ServerUpEvent event;
    event.node = node;
    event.epoch = epoch;
    event.wall_ts_ns = static_cast<std::uint64_t>(common::WallClockNs());
    (void)notifier_->BroadcastNotify(net::wire::kNotifyServerUp,
                                     net::EncodeServerUp(event));
  }
  return Ok();
}

}  // namespace loco::core
