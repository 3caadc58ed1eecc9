#include "core/fsck.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/proto.h"
#include "fs/path.h"
#include "fs/wire.h"

namespace loco::core {

namespace {

// Deterministic canonical key for duplicate-uuid resolution (I8): the
// surviving inode is the smallest (server, dir uuid, name) tuple, so every
// fsck run over the same state picks the same winner.
struct FileSite {
  std::size_t server;
  std::uint64_t dir_raw;
  std::string name;

  bool operator<(const FileSite& o) const {
    return std::tie(server, dir_raw, name) <
           std::tie(o.server, o.dir_raw, o.name);
  }
};

}  // namespace

const char* FsckFindingName(FsckFindingType type) noexcept {
  switch (type) {
    case FsckFindingType::kMissingParent: return "missing-parent";
    case FsckFindingType::kDanglingDmsDirent: return "dangling-dms-dirent";
    case FsckFindingType::kDeadDirentList: return "dead-dirent-list";
    case FsckFindingType::kOrphanDir: return "orphan-dir";
    case FsckFindingType::kOrphanFile: return "orphan-file";
    case FsckFindingType::kMissingFmsDirent: return "missing-fms-dirent";
    case FsckFindingType::kDanglingFmsDirent: return "dangling-fms-dirent";
    case FsckFindingType::kDuplicateUuid: return "duplicate-uuid";
    case FsckFindingType::kLeakedObject: return "leaked-object";
    case FsckFindingType::kRenameIntent: return "rename-intent";
  }
  return "unknown";
}

std::string FsckFinding::Describe() const {
  std::string out = FsckFindingName(type);
  out += ":";
  switch (type) {
    case FsckFindingType::kMissingParent:
      out += " dir '" + path + "' has no parent d-inode";
      break;
    case FsckFindingType::kDanglingDmsDirent:
      out += " dirent '" + name + "' under '" + path + "' has no d-inode";
      break;
    case FsckFindingType::kDeadDirentList:
      out += " dirent list for dead dir uuid " + std::to_string(dir_uuid.raw());
      break;
    case FsckFindingType::kOrphanDir:
      out += " dir '" + path + "' missing from parent dirent list";
      break;
    case FsckFindingType::kOrphanFile:
      out += " fms" + std::to_string(server) + " file '" + name +
             "' under dead dir uuid " + std::to_string(dir_uuid.raw());
      break;
    case FsckFindingType::kMissingFmsDirent:
      out += " fms" + std::to_string(server) + " file '" + name +
             "' missing from dirent list of dir uuid " +
             std::to_string(dir_uuid.raw());
      break;
    case FsckFindingType::kDanglingFmsDirent:
      out += " fms" + std::to_string(server) + " dirent '" + name +
             "' of dir uuid " + std::to_string(dir_uuid.raw()) +
             " has no inode";
      break;
    case FsckFindingType::kDuplicateUuid:
      out += " file uuid " + std::to_string(file_uuid.raw()) +
             " duplicated at fms" + std::to_string(server) + " name '" + name +
             "'";
      break;
    case FsckFindingType::kLeakedObject:
      out += " osd" + std::to_string(server) + " object uuid " +
             std::to_string(file_uuid.raw()) + " unreferenced";
      break;
    case FsckFindingType::kRenameIntent:
      out += " txid " + std::to_string(txid) + " '" + path + "' -> '" + name +
             "' (dms" + std::to_string(src_shard) + " -> dms" +
             std::to_string(dst_shard) + "): " +
             (roll_forward ? "roll forward" : "roll back");
      break;
  }
  if (!holders.empty()) {
    out += " [held by client";
    if (holders.size() > 1) out += "s";
    for (std::size_t i = 0; i < holders.size(); ++i) {
      out += i == 0 ? " " : ", ";
      out += std::to_string(holders[i]);
    }
    out += "]";
  }
  return out;
}

// ---------------------------------------------------------------- snapshot --

struct FsckRunner::Snapshot {
  // DMS (merged across shards; uuids never collide between shards because
  // each shard allocates from its own sid).
  std::unordered_map<std::string, fs::Uuid> dir_by_path;
  std::unordered_map<std::uint64_t, std::string> path_by_uuid;
  // Which shard each scanned d-inode lives on ("/" is replicated; the first
  // scan — shard 0, the canonical root — wins).
  std::unordered_map<std::string, std::size_t> dir_shard;
  struct DirentList {
    std::size_t shard;  // shard the list was scanned from (repairs go there)
    fs::Uuid uuid;
    std::vector<std::string> names;
  };
  std::vector<DirentList> dms_dirents;
  // Pending cross-shard rename records (kDmsScanIntents), all shards.
  struct Intent {
    std::size_t shard;
    std::uint8_t kind;  // 0 = outgoing intent, 1 = incoming marker
    std::uint64_t txid;
    std::string from, to;
  };
  std::vector<Intent> intents;
  // Per FMS (indexed like Config::fms).
  struct FmsState {
    // (dir uuid, name) -> file uuid
    std::map<std::pair<std::uint64_t, std::string>, fs::Uuid> files;
    std::vector<std::pair<fs::Uuid, std::vector<std::string>>> dirents;
  };
  std::vector<FmsState> fms;
  // Per object store: uuid -> block count.
  std::vector<std::map<std::uint64_t, std::uint64_t>> objects;
};

FsckRunner::FsckRunner(net::Channel& channel, Config config)
    : channel_(channel),
      config_(std::move(config)),
      shards_(config_.dms.size()) {}

Result<std::string> FsckRunner::Call(net::NodeId node, std::uint16_t opcode,
                                     std::string payload) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  net::RpcResponse resp;
  // Fsck scan traffic is housekeeping: tagged background so a saturated
  // server sheds it before any foreground request (the scan reports the
  // error and the operator retries when load drops).
  net::CallMeta meta;
  meta.trace_id = net::NextTraceId();
  meta.priority = net::Priority::kBackground;
  channel_.CallAsyncMeta(node, opcode, std::move(payload), meta,
                     [&](net::RpcResponse r) {
                       {
                         std::lock_guard<std::mutex> lock(mu);
                         resp = std::move(r);
                         done = true;
                       }
                       cv.notify_one();
                     });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  if (!resp.ok()) return ErrStatus(resp.code);
  return std::move(resp.payload);
}

Result<FsckRunner::Epochs> FsckRunner::PinSnapshots() {
  Epochs epochs;
  auto pin = [&](net::NodeId node, std::uint64_t* out) -> Status {
    auto r = Call(node, proto::kCtlSnapshotBegin, {});
    LOCO_RETURN_IF_ERROR(r.status());
    if (!fs::Unpack(*r, *out)) return ErrStatus(ErrCode::kCorruption);
    return OkStatus();
  };
  epochs.dms.resize(config_.dms.size());
  for (std::size_t i = 0; i < config_.dms.size(); ++i) {
    LOCO_RETURN_IF_ERROR(pin(config_.dms[i], &epochs.dms[i]));
  }
  epochs.fms.resize(config_.fms.size());
  for (std::size_t i = 0; i < config_.fms.size(); ++i) {
    LOCO_RETURN_IF_ERROR(pin(config_.fms[i], &epochs.fms[i]));
  }
  epochs.object_stores.resize(config_.object_stores.size());
  for (std::size_t i = 0; i < config_.object_stores.size(); ++i) {
    LOCO_RETURN_IF_ERROR(pin(config_.object_stores[i], &epochs.object_stores[i]));
  }
  return epochs;
}

void FsckRunner::ReleaseSnapshots(const Epochs& epochs) {
  // Best-effort: servers also evict pinned snapshots on their own (bounded
  // ring), so a lost End just ages out.
  auto release = [&](net::NodeId node, std::uint64_t epoch) {
    if (epoch != 0) (void)Call(node, proto::kCtlSnapshotEnd, fs::Pack(epoch));
  };
  for (std::size_t i = 0; i < epochs.dms.size(); ++i) {
    release(config_.dms[i], epochs.dms[i]);
  }
  for (std::size_t i = 0; i < epochs.fms.size(); ++i) {
    release(config_.fms[i], epochs.fms[i]);
  }
  for (std::size_t i = 0; i < epochs.object_stores.size(); ++i) {
    release(config_.object_stores[i], epochs.object_stores[i]);
  }
}

Result<FsckRunner::Snapshot> FsckRunner::Scan(const Epochs* epochs) {
  Snapshot snap;
  const auto payload_for = [epochs](std::uint64_t epoch) {
    return epochs ? fs::Pack(epoch) : std::string{};
  };

  std::vector<std::string> entries;
  for (std::size_t shard = 0; shard < config_.dms.size(); ++shard) {
    const std::string epoch_payload =
        payload_for(epochs ? epochs->dms[shard] : 0);

    auto dirs = Call(config_.dms[shard], proto::kDmsScanDirs, epoch_payload);
    LOCO_RETURN_IF_ERROR(dirs.status());
    entries.clear();
    if (!fs::Unpack(*dirs, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      std::string path;
      fs::Uuid uuid;
      if (!fs::Unpack(entry, path, uuid)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      snap.dir_shard.emplace(path, shard);
      snap.dir_by_path.emplace(path, uuid);
      snap.path_by_uuid.emplace(uuid.raw(), std::move(path));
    }

    auto dirents =
        Call(config_.dms[shard], proto::kDmsScanDirents, epoch_payload);
    LOCO_RETURN_IF_ERROR(dirents.status());
    entries.clear();
    if (!fs::Unpack(*dirents, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      fs::Uuid uuid;
      std::vector<std::string> names;
      if (!fs::Unpack(entry, uuid, names)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      snap.dms_dirents.push_back({shard, uuid, std::move(names)});
    }

    auto intents =
        Call(config_.dms[shard], proto::kDmsScanIntents, epoch_payload);
    LOCO_RETURN_IF_ERROR(intents.status());
    entries.clear();
    if (!fs::Unpack(*intents, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      Snapshot::Intent in;
      in.shard = shard;
      if (!fs::Unpack(entry, in.kind, in.txid, in.from, in.to)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      if (in.kind > 1) continue;  // kind 2 = tombstone, permanent by design
      snap.intents.push_back(std::move(in));
    }
  }

  snap.fms.resize(config_.fms.size());
  for (std::size_t i = 0; i < config_.fms.size(); ++i) {
    auto files = Call(config_.fms[i], proto::kFmsScanFiles,
                      payload_for(epochs ? epochs->fms[i] : 0));
    LOCO_RETURN_IF_ERROR(files.status());
    entries.clear();
    if (!fs::Unpack(*files, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      fs::Uuid dir_uuid, file_uuid;
      std::string name;
      if (!fs::Unpack(entry, dir_uuid, name, file_uuid)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      snap.fms[i].files.emplace(
          std::make_pair(dir_uuid.raw(), std::move(name)), file_uuid);
    }
    auto fdirents = Call(config_.fms[i], proto::kFmsScanDirents,
                         payload_for(epochs ? epochs->fms[i] : 0));
    LOCO_RETURN_IF_ERROR(fdirents.status());
    entries.clear();
    if (!fs::Unpack(*fdirents, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      fs::Uuid dir_uuid;
      std::vector<std::string> names;
      if (!fs::Unpack(entry, dir_uuid, names)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      snap.fms[i].dirents.emplace_back(dir_uuid, std::move(names));
    }
  }

  snap.objects.resize(config_.object_stores.size());
  for (std::size_t i = 0; i < config_.object_stores.size(); ++i) {
    auto objects = Call(config_.object_stores[i], proto::kObjScanObjects,
                        payload_for(epochs ? epochs->object_stores[i] : 0));
    LOCO_RETURN_IF_ERROR(objects.status());
    entries.clear();
    if (!fs::Unpack(*objects, entries)) return ErrStatus(ErrCode::kCorruption);
    for (const std::string& entry : entries) {
      std::uint64_t uuid = 0, blocks = 0;
      if (!fs::Unpack(entry, uuid, blocks)) {
        return ErrStatus(ErrCode::kCorruption);
      }
      snap.objects[i].emplace(uuid, blocks);
    }
  }
  return snap;
}

// ---------------------------------------------------------------- analysis --

std::vector<FsckFinding> FsckRunner::Analyze(const Snapshot& snap) const {
  std::vector<FsckFinding> findings;

  // I10 first, alone: a pending cross-shard transfer makes the moved subtree
  // look damaged to every other DMS invariant (paths present on two shards,
  // dirents with no child, ...), so intent findings are resolved before any
  // other check is trusted — this pass reports only them and the multi-pass
  // loop re-scans once they are gone.
  if (!snap.intents.empty()) {
    // Pair each txid's outgoing intent with its incoming marker.
    std::map<std::uint64_t, FsckFinding> by_txid;
    for (const Snapshot::Intent& in : snap.intents) {
      FsckFinding& f = by_txid[in.txid];
      f.type = FsckFindingType::kRenameIntent;
      f.txid = in.txid;
      if (in.kind == 0) {
        f.has_intent = true;
        f.src_shard = in.shard;
        f.path = in.from;
        f.name = in.to;
      } else {
        f.has_marker = true;
        f.dst_shard = in.shard;
        if (f.name.empty()) f.name = in.to;
      }
    }
    for (auto& [txid, f] : by_txid) {
      if (!f.has_marker) f.dst_shard = DmsShardOf(f.name);
      if (!f.has_intent) f.src_shard = f.path.empty() ? 0 : DmsShardOf(f.path);
      // Commit-point rule: the destination root's presence on the
      // destination shard decides the direction.  The uuid must match the
      // still-present source root (when the source has it) — a foreign
      // directory at `to` means our transfer never landed there.
      const auto to_it = snap.dir_by_path.find(f.name);
      const auto to_shard = snap.dir_shard.find(f.name);
      bool dst_present = to_it != snap.dir_by_path.end() &&
                         to_shard != snap.dir_shard.end() &&
                         to_shard->second == f.dst_shard;
      if (dst_present && f.has_intent) {
        const auto from_it = snap.dir_by_path.find(f.path);
        if (from_it != snap.dir_by_path.end() &&
            from_it->second != to_it->second) {
          dst_present = false;  // foreign occupant, not our subtree
        }
      }
      f.roll_forward = dst_present;
      f.server = f.src_shard;
      findings.push_back(std::move(f));
    }
    return findings;
  }

  // I1: every directory except the root has a live parent.  Sort missing
  // parents shallowest-first so the Mkdir repairs apply top-down.
  std::set<std::string> missing_parents;
  for (const auto& [path, uuid] : snap.dir_by_path) {
    if (path == "/") continue;
    const std::string parent(fs::ParentPath(path));
    if (!snap.dir_by_path.count(parent)) missing_parents.insert(parent);
  }
  for (const std::string& parent : missing_parents) {
    FsckFinding f;
    f.type = FsckFindingType::kMissingParent;
    f.path = parent;
    findings.push_back(std::move(f));
  }

  // I2 / I3: DMS dirent records name only live children and sit only under
  // live directories' uuids (the scan groups them per directory).  Repairs
  // are routed to the shard the records live on.
  for (const auto& list : snap.dms_dirents) {
    auto it = snap.path_by_uuid.find(list.uuid.raw());
    if (it == snap.path_by_uuid.end()) {
      FsckFinding f;
      f.type = FsckFindingType::kDeadDirentList;
      f.server = list.shard;
      f.dir_uuid = list.uuid;
      findings.push_back(std::move(f));
      continue;
    }
    for (const std::string& name : list.names) {
      if (!snap.dir_by_path.count(fs::JoinPath(it->second, name))) {
        FsckFinding f;
        f.type = FsckFindingType::kDanglingDmsDirent;
        f.server = list.shard;
        f.path = it->second;
        f.name = name;
        findings.push_back(std::move(f));
      }
    }
  }

  // I4: every directory has a record under its parent.  The root's records
  // are partitioned: each shard holds the slice naming its own
  // subtrees, so the per-uuid union below is the full membership view.
  std::unordered_map<std::uint64_t, std::unordered_set<std::string>>
      dirents_by_uuid;
  for (const auto& list : snap.dms_dirents) {
    auto& set = dirents_by_uuid[list.uuid.raw()];
    for (const std::string& name : list.names) set.insert(name);
  }
  for (const auto& [path, uuid] : snap.dir_by_path) {
    if (path == "/") continue;
    const std::string parent(fs::ParentPath(path));
    auto pit = snap.dir_by_path.find(parent);
    if (pit == snap.dir_by_path.end()) continue;  // already an I1 finding
    const auto lit = dirents_by_uuid.find(pit->second.raw());
    const std::string name(fs::BaseName(path));
    if (lit == dirents_by_uuid.end() || !lit->second.count(name)) {
      FsckFinding f;
      f.type = FsckFindingType::kOrphanDir;
      // The re-added name belongs on the child's shard: that shard holds
      // the parent's dirent slice naming this subtree.
      f.server = DmsShardOf(path);
      f.path = parent;
      f.name = name;
      findings.push_back(std::move(f));
    }
  }

  // I8 first (its purges inform which inodes "survive" for I9): group file
  // sites by uuid, keep the smallest site, flag the rest.
  std::map<std::uint64_t, std::vector<FileSite>> sites_by_uuid;
  for (std::size_t i = 0; i < snap.fms.size(); ++i) {
    for (const auto& [key, file_uuid] : snap.fms[i].files) {
      sites_by_uuid[file_uuid.raw()].push_back(
          FileSite{i, key.first, key.second});
    }
  }
  // (server, dir, name) keys of inodes that are being purged this pass.
  std::set<FileSite> purged;
  for (auto& [uuid, sites] : sites_by_uuid) {
    if (sites.size() < 2) continue;
    std::sort(sites.begin(), sites.end());
    // Prefer a winner whose parent directory is live; fall back to the
    // globally smallest site when none is.
    std::size_t winner = 0;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (snap.path_by_uuid.count(sites[s].dir_raw)) {
        winner = s;
        break;
      }
    }
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (s == winner) continue;
      FsckFinding f;
      f.type = FsckFindingType::kDuplicateUuid;
      f.server = sites[s].server;
      f.name = sites[s].name;
      f.dir_uuid = fs::Uuid(sites[s].dir_raw);
      f.file_uuid = fs::Uuid(uuid);
      findings.push_back(std::move(f));
      purged.insert(sites[s]);
    }
  }

  // I5 / I6: file inodes under live directories are listed in their FMS
  // dirent records; inodes under dead directories are purged with their data.
  std::vector<std::unordered_map<std::uint64_t, std::unordered_set<std::string>>>
      fms_dirents(snap.fms.size());
  for (std::size_t i = 0; i < snap.fms.size(); ++i) {
    for (const auto& [uuid, names] : snap.fms[i].dirents) {
      auto& set = fms_dirents[i][uuid.raw()];
      for (const std::string& name : names) set.insert(name);
    }
  }
  // uuids of inodes that survive this pass — the I9 reference set.
  std::unordered_set<std::uint64_t> referenced;
  for (std::size_t i = 0; i < snap.fms.size(); ++i) {
    for (const auto& [key, file_uuid] : snap.fms[i].files) {
      const auto& [dir_raw, name] = key;
      if (purged.count(FileSite{i, dir_raw, name})) continue;
      if (!snap.path_by_uuid.count(dir_raw)) {
        FsckFinding f;
        f.type = FsckFindingType::kOrphanFile;
        f.server = i;
        f.name = name;
        f.dir_uuid = fs::Uuid(dir_raw);
        f.file_uuid = file_uuid;
        findings.push_back(std::move(f));
        continue;
      }
      referenced.insert(file_uuid.raw());
      const auto lit = fms_dirents[i].find(dir_raw);
      if (lit == fms_dirents[i].end() || !lit->second.count(name)) {
        FsckFinding f;
        f.type = FsckFindingType::kMissingFmsDirent;
        f.server = i;
        f.name = name;
        f.dir_uuid = fs::Uuid(dir_raw);
        findings.push_back(std::move(f));
      }
    }
  }

  // I7: FMS dirent names without an inode on that server.
  for (std::size_t i = 0; i < snap.fms.size(); ++i) {
    for (const auto& [uuid, names] : snap.fms[i].dirents) {
      for (const std::string& name : names) {
        if (snap.fms[i].files.count(std::make_pair(uuid.raw(), name))) {
          continue;
        }
        FsckFinding f;
        f.type = FsckFindingType::kDanglingFmsDirent;
        f.server = i;
        f.name = name;
        f.dir_uuid = uuid;
        findings.push_back(std::move(f));
      }
    }
  }

  // I9: objects referenced by no surviving file inode.  Duplicate-uuid
  // purges keep their uuid referenced (the winner still points at the data).
  for (std::size_t i = 0; i < snap.objects.size(); ++i) {
    for (const auto& [uuid, blocks] : snap.objects[i]) {
      if (referenced.count(uuid)) continue;
      FsckFinding f;
      f.type = FsckFindingType::kLeakedObject;
      f.server = i;
      f.file_uuid = fs::Uuid(uuid);
      findings.push_back(std::move(f));
    }
  }

  return findings;
}

// ----------------------------------------------------------------- repairs --

Result<std::uint64_t> FsckRunner::Repair(
    const std::vector<FsckFinding>& findings) {
  const fs::Identity root{0, 0};
  std::uint64_t applied = 0;
  for (const FsckFinding& f : findings) {
    switch (f.type) {
      case FsckFindingType::kMissingParent: {
        // Recreate the lost directory so its children become reachable
        // again.  kExists is fine (an earlier repair in this pass may have
        // created it); a missing grandparent resolves on the next pass.
        auto r = Call(config_.dms[DmsShardOf(f.path)], proto::kDmsMkdir,
                      fs::Pack(f.path, std::uint32_t{0755}, root,
                               std::uint64_t{0}));
        if (!r.ok() && r.code() != ErrCode::kExists &&
            r.code() != ErrCode::kNotFound) {
          return ErrStatus(r.code());
        }
        ++applied;
        break;
      }
      case FsckFindingType::kDanglingDmsDirent: {
        auto r = Call(config_.dms[f.server], proto::kDmsRepairDirent,
                      fs::Pack(f.path, f.name, std::uint8_t{0}));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kDeadDirentList: {
        auto r = Call(config_.dms[f.server], proto::kDmsDropDirents,
                      fs::Pack(f.dir_uuid));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kOrphanDir: {
        auto r = Call(config_.dms[f.server], proto::kDmsRepairDirent,
                      fs::Pack(f.path, f.name, std::uint8_t{1}));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kOrphanFile: {
        auto r = Call(config_.fms[f.server], proto::kFmsPurgeFile,
                      fs::Pack(f.dir_uuid, f.name));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        // The purged inode owned its data: drop the objects too.
        if (!config_.object_stores.empty() && f.file_uuid.raw() != 0) {
          auto p = Call(ObjFor(f.file_uuid), proto::kObjPurge,
                        fs::Pack(f.file_uuid));
          LOCO_RETURN_IF_ERROR(p.status());
          ++applied;
        }
        break;
      }
      case FsckFindingType::kMissingFmsDirent: {
        auto r = Call(config_.fms[f.server], proto::kFmsRepairDirent,
                      fs::Pack(f.dir_uuid, f.name, std::uint8_t{1}));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kDanglingFmsDirent: {
        auto r = Call(config_.fms[f.server], proto::kFmsRepairDirent,
                      fs::Pack(f.dir_uuid, f.name, std::uint8_t{0}));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kDuplicateUuid: {
        // Purge the losing key only — the surviving inode references the
        // data objects, so they stay.
        auto r = Call(config_.fms[f.server], proto::kFmsPurgeFile,
                      fs::Pack(f.dir_uuid, f.name));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kLeakedObject: {
        auto r = Call(config_.object_stores[f.server], proto::kObjPurge,
                      fs::Pack(f.file_uuid));
        LOCO_RETURN_IF_ERROR(r.status());
        ++applied;
        break;
      }
      case FsckFindingType::kRenameIntent: {
        // Resolve by the commit-point rule Analyze computed.  Forward: drop
        // the lingering marker, then Finish the source (deletes its copy).
        // Back: fence the destination FIRST (its tombstone blocks a commit
        // still queued anywhere), purge any partial install, then abort the
        // source — the same ordering the client uses.
        if (f.roll_forward) {
          if (f.has_marker) {
            auto r = Call(config_.dms[f.dst_shard], proto::kDmsAbortIncoming,
                          fs::Pack(f.txid, std::uint8_t{0}));
            LOCO_RETURN_IF_ERROR(r.status());
            ++applied;
          }
          if (f.has_intent) {
            auto r = Call(config_.dms[f.src_shard], proto::kDmsRenameFinish,
                          fs::Pack(f.txid));
            LOCO_RETURN_IF_ERROR(r.status());
            ++applied;
          }
        } else {
          auto fence = Call(config_.dms[f.dst_shard], proto::kDmsAbortIncoming,
                            fs::Pack(f.txid, std::uint8_t{1}));
          LOCO_RETURN_IF_ERROR(fence.status());
          ++applied;
          if (f.has_intent) {
            auto r = Call(config_.dms[f.src_shard], proto::kDmsRenameAbort,
                          fs::Pack(f.txid));
            LOCO_RETURN_IF_ERROR(r.status());
            ++applied;
          }
        }
        break;
      }
    }
  }
  return applied;
}

void FsckRunner::AnnotateSessionHolders(std::vector<FsckFinding>* findings) {
  // One session-list sweep, then match findings by (server, dir uuid, name).
  // Best-effort: an FMS that fails the list RPC just contributes no holders.
  std::map<std::tuple<std::size_t, std::uint64_t, std::string>,
           std::vector<std::uint64_t>>
      holders;
  for (std::size_t i = 0; i < config_.fms.size(); ++i) {
    auto r = Call(config_.fms[i], proto::kCtlSessionList, {});
    if (!r.ok()) continue;
    std::vector<std::string> entries;
    if (!fs::Unpack(*r, entries)) continue;
    for (const std::string& entry : entries) {
      fs::Uuid dir_uuid{0};
      std::string name;
      std::uint64_t client_id = 0, ttl = 0;
      std::uint8_t exclusive = 0;
      if (!fs::Unpack(entry, dir_uuid, name, client_id, ttl, exclusive)) {
        continue;
      }
      holders[{i, dir_uuid.raw(), name}].push_back(client_id);
    }
  }
  if (holders.empty()) return;
  for (FsckFinding& f : *findings) {
    auto it = holders.find({f.server, f.dir_uuid.raw(), f.name});
    if (it != holders.end()) f.holders = it->second;
  }
}

Result<FsckReport> FsckRunner::Run(const Options& options) {
  if (options.live) {
    auto report = RunLive(options);
    if (report.ok() && !report->findings.empty()) {
      AnnotateSessionHolders(&report->findings);
    }
    return report;
  }
  FsckReport report;
  for (std::uint32_t pass = 0; pass < std::max(options.max_passes, 1u);
       ++pass) {
    auto snap = Scan(nullptr);
    LOCO_RETURN_IF_ERROR(snap.status());
    report.findings = Analyze(*snap);
    ++report.passes;
    if (report.findings.empty() || !options.repair) return report;
    auto applied = Repair(report.findings);
    LOCO_RETURN_IF_ERROR(applied.status());
    report.repairs += *applied;
  }
  // Out of passes: report whatever the final state shows.
  auto snap = Scan(nullptr);
  LOCO_RETURN_IF_ERROR(snap.status());
  report.findings = Analyze(*snap);
  ++report.passes;
  return report;
}

namespace {

// Canonical identity of a finding across passes (live-mode confirmation).
std::string FindingKey(const FsckFinding& f) {
  return fs::Pack(static_cast<std::uint8_t>(f.type),
                  static_cast<std::uint64_t>(f.server), f.path, f.name,
                  f.dir_uuid, f.file_uuid, f.txid);
}

}  // namespace

Result<FsckReport> FsckRunner::RunLive(const Options& options) {
  FsckReport report;
  std::set<std::string> suspects;  // finding keys from the previous pass
  // Confirmation needs at least two looks at the cluster.
  const std::uint32_t max_passes = std::max(options.max_passes, 2u);
  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    auto epochs = PinSnapshots();
    LOCO_RETURN_IF_ERROR(epochs.status());
    auto snap = Scan(&*epochs);
    ReleaseSnapshots(*epochs);
    LOCO_RETURN_IF_ERROR(snap.status());
    const std::vector<FsckFinding> findings = Analyze(*snap);
    ++report.passes;

    std::vector<FsckFinding> confirmed;
    std::set<std::string> keys;
    for (const FsckFinding& f : findings) {
      std::string key = FindingKey(f);
      if (suspects.count(key)) confirmed.push_back(f);
      keys.insert(std::move(key));
    }
    suspects = std::move(keys);
    report.findings = confirmed;

    if (findings.empty()) return report;  // clean scan: nothing suspected
    if (pass == 0) continue;              // first look: nothing confirmable
    if (!options.repair) return report;   // dry run: report the confirmed set
    if (!confirmed.empty()) {
      auto applied = Repair(confirmed);
      LOCO_RETURN_IF_ERROR(applied.status());
      report.repairs += *applied;
    }
    // Unconfirmed suspects (in-flight ops or fresh damage) get another pass.
  }
  return report;
}

}  // namespace loco::core
