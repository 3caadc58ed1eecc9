#include "core/fms.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/codec.h"
#include "common/hash.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "kvstore/striped_kv.h"
#include "net/wire.h"

namespace loco::core {

namespace {

using net::BadRequest;
using net::Fail;
using net::Ok;
using net::OkPayload;

// Lock-table key for a file's (dir_uuid + name) KV key.
std::uint64_t FileLockKey(std::string_view key) {
  return common::WyMix(key, 0xfeed);
}

}  // namespace

FileMetadataServer::FileMetadataServer(const Options& options)
    : options_(options),
      op_metrics_(&common::MetricsRegistry::Default(),
                  "server.fms" + std::to_string(options.sid)) {
  // Per-store subdirectories keep the WALs of the co-located stores apart.
  auto sub_options = [&](const char* name) {
    kv::KvOptions opt = options_.kv;
    if (!opt.dir.empty()) {
      opt.dir += "/";
      opt.dir += name;
      std::error_code ec;
      std::filesystem::create_directories(opt.dir, ec);
    }
    return opt;
  };
  if (options_.decoupled) {
    access_ =
        std::move(kv::MakeStripedKv(options_.backend, sub_options("access")))
            .value();
    content_ =
        std::move(kv::MakeStripedKv(options_.backend, sub_options("content")))
            .value();
  } else {
    coupled_ =
        std::move(kv::MakeStripedKv(options_.backend, sub_options("coupled")))
            .value();
  }
  // One record per file, striped by the directory uuid so a listing is one
  // ordered scan of one stripe (layout.h).  "dirent_records", not the
  // concatenated lists' old "dirents": a store directory written in that
  // format is never replayed as records.
  dirents_ = std::move(kv::MakeStripedKv(kv::KvBackend::kBTree,
                                         sub_options("dirent_records"),
                                         kv::kStripes, kDirentRouteBytes))
                 .value();
  if (options_.kv_decorator) {
    if (access_) access_ = options_.kv_decorator(std::move(access_));
    if (content_) content_ = options_.kv_decorator(std::move(content_));
    if (coupled_) coupled_ = options_.kv_decorator(std::move(coupled_));
    dirents_ = options_.kv_decorator(std::move(dirents_));
  }
  // Recover the fid allocator from the content parts (uuid field) so a
  // restarted server never reissues a live fid.
  std::uint64_t max_fid = 0;
  ForEachFile([&max_fid](std::string_view, fs::Uuid uuid) {
    max_fid = std::max(max_fid, uuid.fid());
  });
  next_fid_ = max_fid + 1;

  kv_gauges_ = kv::RegisterKvStatsGauges(
      &common::MetricsRegistry::Default(),
      "server.fms" + std::to_string(options_.sid) + ".kv",
      [this] { return StoreStats(); });
}

std::size_t FileMetadataServer::FileCount() const {
  return options_.decoupled ? access_->Size() : coupled_->Size();
}

kv::KvStats FileMetadataServer::StoreStats() const {
  kv::KvStats total = dirents_->stats();
  if (options_.decoupled) {
    total = total + access_->stats() + content_->stats();
  } else {
    total = total + coupled_->stats();
  }
  return total;
}

Result<fs::Attr> FileMetadataServer::GetAttrInternal(const std::string& key) const {
  if (options_.decoupled) {
    std::string access, content;
    LOCO_RETURN_IF_ERROR(access_->Get(key, &access));
    LOCO_RETURN_IF_ERROR(content_->Get(key, &content));
    return ParseFileParts(access, content);
  }
  std::string value;
  LOCO_RETURN_IF_ERROR(coupled_->Get(key, &value));
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) {
    return ErrStatus(ErrCode::kCorruption);
  }
  return inode.attr;
}

net::RpcResponse FileMetadataServer::Handle(std::uint16_t opcode,
                                            std::string_view payload) {
  const common::ServerOpCounters::PerOp& m = op_metrics_.For(opcode);
  m.calls->Add();
  net::RpcResponse resp = Dispatch(opcode, payload);
  if (resp.code != ErrCode::kOk) m.errors->Add();
  return resp;
}

net::RpcResponse FileMetadataServer::Dispatch(std::uint16_t opcode,
                                              std::string_view payload) {
  // Snapshot pinning excludes every other handler so the materialized cut is
  // a point in time; everything else proceeds concurrently under the shared
  // side (the per-dir and per-file lock tables do the fine-grained work).
  if (opcode == proto::kCtlSnapshotBegin) {
    std::unique_lock scan(scan_mu_);
    return snapshots_.Begin({ScanFilesPayload(), DirentScanPayload(*dirents_)});
  }
  std::shared_lock scan(scan_mu_);
  switch (opcode) {
    case proto::kFmsCreate: return Create(payload);
    case proto::kFmsRemove: return Remove(payload);
    case proto::kFmsGetAttr: return GetAttr(payload);
    case proto::kFmsOpen: return Open(payload);
    case proto::kFmsChmod: return Chmod(payload);
    case proto::kFmsChown: return Chown(payload);
    case proto::kFmsUtimens: return Utimens(payload);
    case proto::kFmsAccess: return Access(payload);
    case proto::kFmsSetSize: return SetSize(payload);
    case proto::kFmsSetAtime: return SetAtime(payload);
    case proto::kFmsReaddir: return Readdir(payload);
    // A batch's sub-ops run the single-op handler wholesale, so they take
    // the same locks and keep the same write order (a batched create writes
    // content before access; a batched SetSize never regresses a concurrent
    // writer's size).
    case proto::kFmsBatchCreate:
      return net::wire::ServeBatch(
          payload, [this](std::string_view sub) { return Create(sub); });
    case proto::kFmsBatchStat:
      return net::wire::ServeBatch(
          payload, [this](std::string_view sub) { return GetAttr(sub); });
    case proto::kFmsBatchSetSize:
      return net::wire::ServeBatch(
          payload, [this](std::string_view sub) { return SetSize(sub); });
    case proto::kFmsReaddirPlus: return ReaddirPlus(payload);
    case proto::kFmsCheckEmpty: return CheckEmpty(payload);
    case proto::kFmsReadRaw: return ReadRaw(payload);
    case proto::kFmsInsertRaw: return InsertRaw(payload);
    case proto::kFmsScanFiles:
      return snapshots_.Scan(payload, 0, [this] { return ScanFilesPayload(); });
    case proto::kFmsScanDirents:
      return snapshots_.Scan(payload, 1,
                             [this] { return DirentScanPayload(*dirents_); });
    case proto::kFmsRepairDirent: return RepairDirent(payload);
    case proto::kFmsPurgeFile: return PurgeFile(payload);
    case proto::kFmsCheckUuids: return CheckUuids(payload);
    case proto::kCtlGcStatus: return GcManager::StatusReply(gc_);
    case proto::kCtlSnapshotEnd: return snapshots_.End(payload);
    default: return Fail(ErrCode::kUnsupported);
  }
}

net::RpcResponse FileMetadataServer::Create(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  std::uint32_t mode = 0;
  fs::Identity who;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, dir_uuid, name, mode, who, ts)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const fs::Uuid uuid = fs::Uuid::Make(
      options_.sid, next_fid_.fetch_add(1, std::memory_order_relaxed));
  // Serialize against same-directory creates/removes: the existence check,
  // the inode puts, and the dirent record must be one atomic step.
  const auto guard = dir_locks_.Lock(dir_uuid.raw());

  if (options_.decoupled) {
    if (access_->Contains(key)) return Fail(ErrCode::kExists);
    // Content part before access part: the access part is the existence
    // marker (Contains and GetAttrInternal consult it first), so an
    // interrupted create must never leave an access part whose content
    // read then errors.
    if (!content_->Put(key, ContentPartLayout::Make(ts, ts, 0, 4096, uuid))
             .ok()) {
      return Fail(ErrCode::kIo);
    }
    if (!access_->Put(key, AccessPartLayout::Make(ts, mode, who.uid, who.gid))
             .ok()) {
      (void)content_->Delete(key);
      return Fail(ErrCode::kIo);
    }
  } else {
    if (coupled_->Contains(key)) return Fail(ErrCode::kExists);
    CoupledInode inode;
    inode.attr.ctime = inode.attr.mtime = inode.attr.atime = ts;
    inode.attr.mode = mode;
    inode.attr.uid = who.uid;
    inode.attr.gid = who.gid;
    inode.attr.block_size = 4096;
    inode.attr.uuid = uuid;
    inode.name = name;
    if (!coupled_->Put(key, inode.Serialize()).ok()) return Fail(ErrCode::kIo);
  }
  // The dirent record shares the inode's key.
  if (!dirents_->Put(key, {}).ok()) {
    // Roll back the inode: a file without its dirent record would survive
    // as an orphan invisible to Readdir yet blocking future creates.
    if (options_.decoupled) {
      (void)access_->Delete(key);
      (void)content_->Delete(key);
    } else {
      (void)coupled_->Delete(key);
    }
    return Fail(ErrCode::kIo);
  }
  return OkPayload(fs::Pack(uuid));
}

net::RpcResponse FileMetadataServer::Remove(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  if (!fs::Unpack(payload, dir_uuid, name, who)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = dir_locks_.Lock(dir_uuid.raw());
  auto attr = GetAttrInternal(key);
  if (!attr.ok()) return Fail(attr.code());
  if (options_.decoupled) {
    (void)access_->Delete(key);
    (void)content_->Delete(key);
  } else {
    (void)coupled_->Delete(key);
  }
  (void)dirents_->Delete(key);
  return OkPayload(fs::Pack(attr->uuid));
}

net::RpcResponse FileMetadataServer::GetAttr(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  if (!fs::Unpack(payload, dir_uuid, name)) return BadRequest();
  auto attr = GetAttrInternal(FileKey(dir_uuid, name));
  if (!attr.ok()) return Fail(attr.code());
  return OkPayload(fs::Pack(*attr));
}

net::RpcResponse FileMetadataServer::Open(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  if (!fs::Unpack(payload, dir_uuid, name, who)) return BadRequest();
  auto attr = GetAttrInternal(FileKey(dir_uuid, name));
  if (!attr.ok()) return Fail(attr.code());
  if (!fs::CheckPermission(who, attr->mode, attr->uid, attr->gid,
                           fs::kModeRead)) {
    return Fail(ErrCode::kPermission);
  }
  return OkPayload(fs::Pack(*attr));
}

net::RpcResponse FileMetadataServer::Chmod(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint32_t mode = 0;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, mode, ts)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = file_locks_.Lock(FileLockKey(key));

  if (options_.decoupled) {
    // Access-part only (Table 1): read 24 bytes, patch 12.
    std::string access;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    const std::uint32_t owner =
        common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
    if (who.uid != 0 && who.uid != owner) return Fail(ErrCode::kPermission);
    std::string patch(12, '\0');
    common::StoreAt<std::uint64_t>(&patch, 0, ts);
    common::StoreAt<std::uint32_t>(&patch, 8, mode);
    (void)access_->PatchValue(key, AccessPartLayout::kCtime, patch);
    return Ok();
  }
  std::string value;
  if (!coupled_->Get(key, &value).ok()) return Fail(ErrCode::kNotFound);
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) return Fail(ErrCode::kCorruption);
  if (who.uid != 0 && who.uid != inode.attr.uid) return Fail(ErrCode::kPermission);
  inode.attr.mode = mode;
  inode.attr.ctime = ts;
  (void)coupled_->Put(key, inode.Serialize());
  return Ok();
}

net::RpcResponse FileMetadataServer::Chown(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint32_t uid = 0, gid = 0;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, uid, gid, ts)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = file_locks_.Lock(FileLockKey(key));

  if (options_.decoupled) {
    std::string access;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    const std::uint32_t owner =
        common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
    if (who.uid != 0 && !(who.uid == owner && uid == owner)) {
      return Fail(ErrCode::kPermission);
    }
    std::string ids(8, '\0');
    common::StoreAt<std::uint32_t>(&ids, 0, uid);
    common::StoreAt<std::uint32_t>(&ids, 4, gid);
    (void)access_->PatchValue(key, AccessPartLayout::kUid, ids);
    std::string ctime(8, '\0');
    common::StoreAt<std::uint64_t>(&ctime, 0, ts);
    (void)access_->PatchValue(key, AccessPartLayout::kCtime, ctime);
    return Ok();
  }
  std::string value;
  if (!coupled_->Get(key, &value).ok()) return Fail(ErrCode::kNotFound);
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) return Fail(ErrCode::kCorruption);
  if (who.uid != 0 && !(who.uid == inode.attr.uid && uid == inode.attr.uid)) {
    return Fail(ErrCode::kPermission);
  }
  inode.attr.uid = uid;
  inode.attr.gid = gid;
  inode.attr.ctime = ts;
  (void)coupled_->Put(key, inode.Serialize());
  return Ok();
}

net::RpcResponse FileMetadataServer::Utimens(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint64_t mtime = 0, atime = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, mtime, atime)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = file_locks_.Lock(FileLockKey(key));
  auto attr = GetAttrInternal(key);
  if (!attr.ok()) return Fail(attr.code());
  if (who.uid != 0 && who.uid != attr->uid &&
      !fs::CheckPermission(who, attr->mode, attr->uid, attr->gid,
                           fs::kModeWrite)) {
    return Fail(ErrCode::kPermission);
  }
  if (options_.decoupled) {
    std::string times(16, '\0');
    common::StoreAt<std::uint64_t>(&times, 0, mtime);
    common::StoreAt<std::uint64_t>(&times, 8, atime);
    (void)content_->PatchValue(key, ContentPartLayout::kMtime, times);
    return Ok();
  }
  std::string value;
  (void)coupled_->Get(key, &value);
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) return Fail(ErrCode::kCorruption);
  inode.attr.mtime = mtime;
  inode.attr.atime = atime;
  (void)coupled_->Put(key, inode.Serialize());
  return Ok();
}

net::RpcResponse FileMetadataServer::Access(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint32_t want = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, want)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  if (options_.decoupled) {
    // Access part alone answers permission queries (Table 1).
    std::string access;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    const auto mode = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kMode);
    const auto uid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
    const auto gid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kGid);
    if (!fs::CheckPermission(who, mode, uid, gid, want)) {
      return Fail(ErrCode::kPermission);
    }
    return Ok();
  }
  auto attr = GetAttrInternal(key);
  if (!attr.ok()) return Fail(attr.code());
  if (!fs::CheckPermission(who, attr->mode, attr->uid, attr->gid, want)) {
    return Fail(ErrCode::kPermission);
  }
  return Ok();
}

net::RpcResponse FileMetadataServer::SetSize(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint64_t end = 0;
  std::uint8_t truncate = 0;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, end, truncate, ts)) {
    return BadRequest();
  }
  const std::string key = FileKey(dir_uuid, name);
  // Read-modify-write of the size field: serialize per file so concurrent
  // extending writes never regress the size.
  const auto guard = file_locks_.Lock(FileLockKey(key));

  if (options_.decoupled) {
    std::string access;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    const auto mode = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kMode);
    const auto uid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
    const auto gid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kGid);
    if (!fs::CheckPermission(who, mode, uid, gid, fs::kModeWrite)) {
      return Fail(ErrCode::kPermission);
    }
    // Content part: read only the size and uuid fields, patch mtime + size.
    std::string size_bytes, uuid_bytes;
    (void)content_->ReadValueAt(key, ContentPartLayout::kFileSize, 8, &size_bytes);
    (void)content_->ReadValueAt(key, ContentPartLayout::kUuid, 8, &uuid_bytes);
    const std::uint64_t old_size = common::LoadAt<std::uint64_t>(size_bytes, 0);
    const std::uint64_t new_size = truncate ? end : std::max(old_size, end);
    std::string mtime(8, '\0');
    common::StoreAt<std::uint64_t>(&mtime, 0, ts);
    (void)content_->PatchValue(key, ContentPartLayout::kMtime, mtime);
    std::string size_patch(8, '\0');
    common::StoreAt<std::uint64_t>(&size_patch, 0, new_size);
    (void)content_->PatchValue(key, ContentPartLayout::kFileSize, size_patch);
    return OkPayload(fs::Pack(fs::Uuid(common::LoadAt<std::uint64_t>(uuid_bytes, 0)),
                              new_size));
  }

  std::string value;
  if (!coupled_->Get(key, &value).ok()) return Fail(ErrCode::kNotFound);
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) return Fail(ErrCode::kCorruption);
  if (!fs::CheckPermission(who, inode.attr.mode, inode.attr.uid, inode.attr.gid,
                           fs::kModeWrite)) {
    return Fail(ErrCode::kPermission);
  }
  const std::uint64_t new_size =
      truncate ? end : std::max(inode.attr.size, end);
  inode.attr.size = new_size;
  inode.attr.mtime = ts;
  // Coupled mode keeps per-block indexing metadata (what §3.3.2 removes):
  // maintain one index entry per block of the new size.
  const std::uint64_t blocks =
      (new_size + inode.attr.block_size - 1) / inode.attr.block_size;
  inode.block_index.resize(blocks);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    inode.block_index[b] = inode.attr.uuid.raw() ^ b;
  }
  (void)coupled_->Put(key, inode.Serialize());
  return OkPayload(fs::Pack(inode.attr.uuid, new_size));
}

net::RpcResponse FileMetadataServer::SetAtime(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  fs::Identity who;
  std::uint64_t ts = 0;
  if (!fs::Unpack(payload, dir_uuid, name, who, ts)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = file_locks_.Lock(FileLockKey(key));

  if (options_.decoupled) {
    std::string access;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    const auto mode = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kMode);
    const auto uid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
    const auto gid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kGid);
    if (!fs::CheckPermission(who, mode, uid, gid, fs::kModeRead)) {
      return Fail(ErrCode::kPermission);
    }
    std::string atime(8, '\0');
    common::StoreAt<std::uint64_t>(&atime, 0, ts);
    (void)content_->PatchValue(key, ContentPartLayout::kAtime, atime);
    std::string size_bytes, uuid_bytes;
    (void)content_->ReadValueAt(key, ContentPartLayout::kFileSize, 8, &size_bytes);
    (void)content_->ReadValueAt(key, ContentPartLayout::kUuid, 8, &uuid_bytes);
    return OkPayload(fs::Pack(fs::Uuid(common::LoadAt<std::uint64_t>(uuid_bytes, 0)),
                              common::LoadAt<std::uint64_t>(size_bytes, 0)));
  }

  std::string value;
  if (!coupled_->Get(key, &value).ok()) return Fail(ErrCode::kNotFound);
  CoupledInode inode;
  if (!CoupledInode::Deserialize(value, &inode)) return Fail(ErrCode::kCorruption);
  if (!fs::CheckPermission(who, inode.attr.mode, inode.attr.uid, inode.attr.gid,
                           fs::kModeRead)) {
    return Fail(ErrCode::kPermission);
  }
  inode.attr.atime = ts;
  (void)coupled_->Put(key, inode.Serialize());
  return OkPayload(fs::Pack(inode.attr.uuid, inode.attr.size));
}

net::RpcResponse FileMetadataServer::Readdir(std::string_view payload) {
  fs::Uuid dir_uuid;
  if (!fs::Unpack(payload, dir_uuid)) return BadRequest();
  // Encode the fs::Pack(std::vector<fs::DirEntry>) reply straight from the
  // records, which arrive in name order: a u32 count (patched in once
  // known), then each name and a zero is_dir byte.
  std::string reply(sizeof(std::uint32_t), '\0');
  common::Writer w(&reply);
  std::uint32_t count = 0;
  (void)dirents_->VisitPrefix(DirentPrefix(dir_uuid), 0,
                              [&w, &count](std::string_view key,
                                           std::string_view) {
                                w.PutBytes(key.substr(kDirentRouteBytes));
                                w.PutU8(0);
                                ++count;
                                return true;
                              });
  common::Writer count_bytes;
  count_bytes.PutU32(count);
  reply.replace(0, sizeof(std::uint32_t), count_bytes.str());
  return OkPayload(std::move(reply));
}

net::RpcResponse FileMetadataServer::ReaddirPlus(std::string_view payload) {
  fs::Uuid dir_uuid;
  if (!fs::Unpack(payload, dir_uuid)) return BadRequest();
  // List first (one scan under the stripe lock), then stat each name — a
  // concurrent remove turns into a per-entry kNotFound, exactly what a
  // readdir+stat sequence could observe anyway.
  std::vector<net::wire::BatchItem> items;
  for (std::string& name : ListDirents(*dirents_, dir_uuid)) {
    auto attr = GetAttrInternal(FileKey(dir_uuid, name));
    net::wire::BatchItem item;
    if (attr.ok()) {
      item.payload = fs::Pack(name, *attr);
    } else {
      item.code = attr.code();
      item.payload = fs::Pack(name);
    }
    items.push_back(std::move(item));
  }
  return net::wire::BatchReply(items);
}

net::RpcResponse FileMetadataServer::CheckEmpty(std::string_view payload) {
  fs::Uuid dir_uuid;
  if (!fs::Unpack(payload, dir_uuid)) return BadRequest();
  if (HasDirents(*dirents_, dir_uuid)) return Fail(ErrCode::kNotEmpty);
  return Ok();
}

net::RpcResponse FileMetadataServer::ReadRaw(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  if (!fs::Unpack(payload, dir_uuid, name)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  if (options_.decoupled) {
    std::string access, content;
    if (!access_->Get(key, &access).ok()) return Fail(ErrCode::kNotFound);
    (void)content_->Get(key, &content);
    return OkPayload(fs::Pack(access, content));
  }
  // Coupled mode relocation moves the serialized inode in the "access" slot.
  std::string value;
  if (!coupled_->Get(key, &value).ok()) return Fail(ErrCode::kNotFound);
  return OkPayload(fs::Pack(value, std::string()));
}

net::RpcResponse FileMetadataServer::InsertRaw(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name, access, content;
  if (!fs::Unpack(payload, dir_uuid, name, access, content)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = dir_locks_.Lock(dir_uuid.raw());
  if (options_.decoupled) {
    if (access_->Contains(key)) return Fail(ErrCode::kExists);
    // Same write order as Create: content part first, access part (the
    // existence marker) last, so a failure in between strands no file whose
    // GetAttr would then error.
    if (!content_->Put(key, content).ok()) return Fail(ErrCode::kIo);
    if (!access_->Put(key, access).ok()) {
      (void)content_->Delete(key);
      return Fail(ErrCode::kIo);
    }
  } else {
    if (coupled_->Contains(key)) return Fail(ErrCode::kExists);
    // Rewrite the embedded name so readback stays consistent.
    CoupledInode inode;
    if (!CoupledInode::Deserialize(access, &inode)) return Fail(ErrCode::kCorruption);
    inode.name = name;
    if (!coupled_->Put(key, inode.Serialize()).ok()) return Fail(ErrCode::kIo);
  }
  if (!dirents_->Put(key, {}).ok()) {
    if (options_.decoupled) {
      (void)access_->Delete(key);
      (void)content_->Delete(key);
    } else {
      (void)coupled_->Delete(key);
    }
    return Fail(ErrCode::kIo);
  }
  return Ok();
}

// ----------------------------------------------------- fsck / admin surface --

void FileMetadataServer::ForEachFile(
    const std::function<void(std::string_view key, fs::Uuid uuid)>& fn) const {
  if (options_.decoupled) {
    content_->ForEach([&fn](std::string_view key, std::string_view value) {
      fn(key, fs::Uuid(common::LoadAt<std::uint64_t>(value,
                                                     ContentPartLayout::kUuid)));
      return true;
    });
    return;
  }
  coupled_->ForEach([&fn](std::string_view key, std::string_view value) {
    CoupledInode inode;
    if (CoupledInode::Deserialize(value, &inode)) fn(key, inode.attr.uuid);
    return true;
  });
}

std::string FileMetadataServer::ScanFilesPayload() const {
  // Full file-inode inventory: (parent uuid, name, file uuid) per inode
  // hashed to this server.
  std::vector<std::string> entries;
  ForEachFile([&entries](std::string_view key, fs::Uuid file_uuid) {
    if (key.size() < 8) return;
    const fs::Uuid dir_uuid(common::LoadAt<std::uint64_t>(key, 0));
    entries.push_back(fs::Pack(dir_uuid, std::string(key.substr(8)), file_uuid));
  });
  return fs::Pack(entries);
}

net::RpcResponse FileMetadataServer::CheckUuids(std::string_view payload) {
  UuidBitmap bitmap;
  if (!bitmap.Parse(payload)) return BadRequest();
  ForEachFile([&bitmap](std::string_view, fs::Uuid uuid) { bitmap.Mark(uuid); });
  return OkPayload(bitmap.Take());
}

net::RpcResponse FileMetadataServer::RepairDirent(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  std::uint8_t add = 0;
  if (!fs::Unpack(payload, dir_uuid, name, add)) return BadRequest();
  if (name.empty()) return Fail(ErrCode::kInvalid);
  // Re-checked under the lock Create/Remove hold for the directory (I6
  // adds, I7 drops).
  const auto guard = dir_locks_.Lock(dir_uuid.raw());
  const std::string key = DirentKey(dir_uuid, name);
  return RepairDirentRecord(
      dirents_.get(), key, add != 0,
      options_.decoupled ? access_->Contains(key) : coupled_->Contains(key));
}

net::RpcResponse FileMetadataServer::PurgeFile(std::string_view payload) {
  fs::Uuid dir_uuid;
  std::string name;
  if (!fs::Unpack(payload, dir_uuid, name)) return BadRequest();
  const std::string key = FileKey(dir_uuid, name);
  const auto guard = dir_locks_.Lock(dir_uuid.raw());
  // Unconditional drop of both inode parts plus the dirent entry — the
  // repair action for orphaned inodes and stale rename intermediates.  If no
  // inode exists the uuid in the reply is zero and only the dirent (if any)
  // goes away, which keeps a replayed purge idempotent.
  auto attr = GetAttrInternal(key);
  const fs::Uuid uuid = attr.ok() ? attr->uuid : fs::Uuid(0);
  if (options_.decoupled) {
    (void)access_->Delete(key);
    (void)content_->Delete(key);
  } else {
    (void)coupled_->Delete(key);
  }
  (void)dirents_->Delete(key);
  return OkPayload(fs::Pack(uuid));
}

// --------------------------------------------------------- housekeeping --

GcStepResult FileMetadataServer::GcStep(std::uint32_t budget,
                                        const UuidProbe& dir_alive) {
  if (!gc_steps_) {
    gc_steps_ = std::make_unique<GcStepper>(
        ServerRole::kFms, "gc.fms" + std::to_string(options_.sid));
  }
  return gc_steps_->Step(
      budget, *this,
      [this](ScanView* view) {
        std::string files, dirents;
        {
          std::shared_lock scan(scan_mu_);
          files = ScanFilesPayload();
          dirents = DirentScanPayload(*dirents_);
        }
        return DecodeFmsScan(files, dirents, view);
      },
      dir_alive);
}

}  // namespace loco::core
