#include "core/invariants.h"

#include <algorithm>
#include <tuple>

#include "common/clock.h"
#include "common/codec.h"
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

// Pinned snapshots kept per server.
constexpr std::size_t kPinnedCap = 4;

Status Corrupt() { return ErrStatus(ErrCode::kCorruption); }

std::size_t Depth(const std::string& path) {
  return static_cast<std::size_t>(std::count(path.begin(), path.end(), '/'));
}

// Canonical identity of a finding across scans.
std::string FindingKey(const FsckFinding& f) {
  return fs::Pack(static_cast<std::uint8_t>(f.type),
                  static_cast<std::uint64_t>(f.server), f.path, f.name,
                  f.dir_uuid, f.file_uuid, f.txid);
}

}  // namespace

namespace {

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

}  // namespace

std::string FsckFinding::Describe() const {
  std::string out = FsckFindingName(type);
  out += ":";
  switch (type) {
    case FsckFindingType::kMissingParent:
      out += " dir '" + path + "' has no d-inode but has descendants";
      break;
    case FsckFindingType::kDanglingDmsDirent:
      out += " dirent '" + name + "' under '" + path + "' has no d-inode";
      break;
    case FsckFindingType::kDeadDirentList:
      out += " dirent list for dead dir uuid " + std::to_string(dir_uuid.raw());
      break;
    case FsckFindingType::kOrphanDir:
      out += " dir '" + fs::JoinPath(path, name) +
             "' missing from the dirent records of '" + path + "'";
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
  return out;
}

// ------------------------------------------------------------------ scan --

Status DecodeDmsScan(std::size_t shard, std::string_view dirs,
                     std::string_view dirents, std::string_view intents,
                     ScanView* view) {
  std::vector<std::string> entries;
  if (!fs::Unpack(dirs, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    std::string path;
    fs::Uuid uuid;
    if (!fs::Unpack(entry, path, uuid)) return Corrupt();
    view->dir_shard.emplace(path, shard);
    view->dir_by_path.emplace(path, uuid);
    view->path_by_uuid.emplace(uuid.raw(), std::move(path));
  }
  if (!fs::Unpack(dirents, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    fs::Uuid uuid;
    std::vector<std::string> names;
    if (!fs::Unpack(entry, uuid, names)) return Corrupt();
    view->dms_dirents.push_back({shard, uuid, std::move(names)});
  }
  if (!fs::Unpack(intents, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    ScanView::Intent in;
    in.shard = shard;
    if (!fs::Unpack(entry, in.kind, in.txid, in.from, in.to)) return Corrupt();
    if (in.kind > 1) continue;  // kind 2 = tombstone, permanent by design
    view->intents.push_back(std::move(in));
  }
  view->dms = true;
  return OkStatus();
}

Status DecodeFmsScan(std::string_view files, std::string_view dirents,
                     ScanView* view) {
  ScanView::FmsState& state = view->fms.emplace_back();
  std::vector<std::string> entries;
  if (!fs::Unpack(files, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    fs::Uuid dir_uuid, file_uuid;
    std::string name;
    if (!fs::Unpack(entry, dir_uuid, name, file_uuid)) return Corrupt();
    state.files.emplace(std::make_pair(dir_uuid.raw(), std::move(name)),
                        file_uuid);
  }
  if (!fs::Unpack(dirents, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    fs::Uuid dir_uuid;
    std::vector<std::string> names;
    if (!fs::Unpack(entry, dir_uuid, names)) return Corrupt();
    state.dirents[dir_uuid.raw()].insert(names.begin(), names.end());
  }
  return OkStatus();
}

Status DecodeObjectScan(std::string_view objects, ScanView* view) {
  auto& store = view->objects.emplace_back();
  std::vector<std::string> entries;
  if (!fs::Unpack(objects, entries)) return Corrupt();
  for (const std::string& entry : entries) {
    std::uint64_t uuid = 0, blocks = 0;
    if (!fs::Unpack(entry, uuid, blocks)) return Corrupt();
    store.emplace(uuid, blocks);
  }
  return OkStatus();
}

// ---------------------------------------------------------------- detect --

namespace {

// I10: pair each txid's outgoing intent with its incoming marker and pick
// the direction by the commit-point rule.
void DetectIntents(const ScanView& view, const ShardMap& shards,
                   std::vector<FsckFinding>* findings) {
  std::map<std::uint64_t, FsckFinding> by_txid;
  for (const ScanView::Intent& in : view.intents) {
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
    if (!f.has_marker) f.dst_shard = shards.ShardOf(f.name);
    if (!f.has_intent) {
      f.src_shard = f.path.empty() ? 0 : shards.ShardOf(f.path);
    }
    // The destination root counts only on the destination shard, and the
    // source root only while the source still holds its intent.
    const auto to_it = view.dir_by_path.find(f.name);
    const auto to_shard = view.dir_shard.find(f.name);
    const fs::Uuid* dst_root =
        to_it != view.dir_by_path.end() && to_shard != view.dir_shard.end() &&
                to_shard->second == f.dst_shard
            ? &to_it->second
            : nullptr;
    const auto from_it = view.dir_by_path.find(f.path);
    const fs::Uuid* src_root =
        f.has_intent && from_it != view.dir_by_path.end() ? &from_it->second
                                                          : nullptr;
    f.roll_forward = RollsForward(dst_root, src_root);
    f.server = f.src_shard;
    findings->push_back(std::move(f));
  }
}

// I1–I4 over the DMS side.
void DetectDirs(const ScanView& view, const ShardMap& shards,
                std::vector<FsckFinding>* findings) {
  // I1: every ancestor of a live directory must exist.  Walk each whole
  // missing chain and recreate it shallowest first, so a broken chain
  // repairs top-down within one pass.
  const auto shallower = [](const std::string& a, const std::string& b) {
    const std::size_t da = Depth(a), db = Depth(b);
    return da != db ? da < db : a < b;
  };
  std::set<std::string, decltype(shallower)> missing(shallower);
  for (const auto& [path, uuid] : view.dir_by_path) {
    if (path == "/") continue;
    std::string p(fs::ParentPath(path));
    while (p != "/" && !view.dir_by_path.count(p) && missing.insert(p).second) {
      p = std::string(fs::ParentPath(p));
    }
  }
  for (const std::string& path : missing) {
    FsckFinding f;
    f.type = FsckFindingType::kMissingParent;
    f.path = path;
    findings->push_back(std::move(f));
  }

  // I2 / I3: DMS dirent records name only live children and sit only under
  // live directories' uuids.  Repairs go to the shard the records live on.
  for (const auto& list : view.dms_dirents) {
    auto it = view.path_by_uuid.find(list.uuid.raw());
    if (it == view.path_by_uuid.end()) {
      FsckFinding f;
      f.type = FsckFindingType::kDeadDirentList;
      f.server = list.shard;
      f.dir_uuid = list.uuid;
      findings->push_back(std::move(f));
      continue;
    }
    for (const std::string& name : list.names) {
      if (!view.dir_by_path.count(fs::JoinPath(it->second, name))) {
        FsckFinding f;
        f.type = FsckFindingType::kDanglingDmsDirent;
        f.server = list.shard;
        f.path = it->second;
        f.name = name;
        findings->push_back(std::move(f));
      }
    }
  }

  // I4: every directory has a record under its parent.  The root's records
  // are partitioned: each shard holds the slice naming its own subtrees, so
  // the per-uuid union below is the full membership view.
  std::unordered_map<std::uint64_t, std::unordered_set<std::string>>
      dirents_by_uuid;
  for (const auto& list : view.dms_dirents) {
    auto& set = dirents_by_uuid[list.uuid.raw()];
    for (const std::string& name : list.names) set.insert(name);
  }
  for (const auto& [path, uuid] : view.dir_by_path) {
    if (path == "/") continue;
    const std::string parent(fs::ParentPath(path));
    auto pit = view.dir_by_path.find(parent);
    if (pit == view.dir_by_path.end()) continue;  // already an I1 finding
    const auto lit = dirents_by_uuid.find(pit->second.raw());
    const std::string name(fs::BaseName(path));
    if (lit == dirents_by_uuid.end() || !lit->second.count(name)) {
      FsckFinding f;
      f.type = FsckFindingType::kOrphanDir;
      // The re-added name belongs on the child's shard: that shard holds
      // the parent's dirent slice naming this subtree.
      f.server = shards.ShardOf(path);
      f.path = parent;
      f.name = name;
      findings->push_back(std::move(f));
    }
  }
}

}  // namespace

std::vector<FsckFinding> Detect(const ScanView& view, const ShardMap& shards) {
  std::vector<FsckFinding> findings;
  // I10 first, alone: a pending transfer makes the moved subtree look
  // damaged to every other DMS invariant (paths on two shards, records with
  // no child, ...), so this scan reports only the transfers and the next
  // scan, after they resolve, checks the rest.
  if (!view.intents.empty()) {
    DetectIntents(view, shards, &findings);
    return findings;
  }
  if (view.dms) DetectDirs(view, shards, &findings);

  // Whether a directory uuid is live: the DMS side answers when the scan
  // holds it, else the probe; nullopt when neither can.
  const auto dir_live = [&view](std::uint64_t raw) -> std::optional<bool> {
    if (view.dms) return view.path_by_uuid.count(raw) != 0;
    if (view.live_dirs) return view.live_dirs->count(raw) != 0;
    return std::nullopt;
  };

  // I8 before I5/I6 (its purges decide which inodes survive for I9): group
  // file sites by uuid, keep the smallest site, flag the rest.  Its winner
  // prefers a live parent, so it needs the DMS side.
  std::set<FileSite> purged;
  if (view.dms) {
    std::map<std::uint64_t, std::vector<FileSite>> sites_by_uuid;
    for (std::size_t i = 0; i < view.fms.size(); ++i) {
      for (const auto& [key, file_uuid] : view.fms[i].files) {
        sites_by_uuid[file_uuid.raw()].push_back(
            FileSite{i, key.first, key.second});
      }
    }
    for (auto& [uuid, sites] : sites_by_uuid) {
      if (sites.size() < 2) continue;
      std::sort(sites.begin(), sites.end());
      std::size_t winner = 0;
      for (std::size_t s = 0; s < sites.size(); ++s) {
        if (view.path_by_uuid.count(sites[s].dir_raw)) {
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
  }

  // I5 / I6: file inodes under dead directories are purged with their data;
  // the others are listed in their FMS dirent records.  With the parent's
  // liveness unknown, only I6 runs.  `referenced` collects the uuids of the
  // inodes that survive this pass — the I9 reference set.
  std::unordered_set<std::uint64_t> referenced;
  for (std::size_t i = 0; i < view.fms.size(); ++i) {
    for (const auto& [key, file_uuid] : view.fms[i].files) {
      const auto& [dir_raw, name] = key;
      if (purged.count(FileSite{i, dir_raw, name})) continue;
      const std::optional<bool> live = dir_live(dir_raw);
      if (live.has_value() && !*live) {
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
      const auto lit = view.fms[i].dirents.find(dir_raw);
      if (lit == view.fms[i].dirents.end() || !lit->second.count(name)) {
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
  for (std::size_t i = 0; i < view.fms.size(); ++i) {
    for (const auto& [dir_raw, names] : view.fms[i].dirents) {
      for (const std::string& name : names) {
        if (view.fms[i].files.count(std::make_pair(dir_raw, name))) continue;
        FsckFinding f;
        f.type = FsckFindingType::kDanglingFmsDirent;
        f.server = i;
        f.name = name;
        f.dir_uuid = fs::Uuid(dir_raw);
        findings.push_back(std::move(f));
      }
    }
  }

  // I9: objects referenced by no surviving file inode — the inodes this
  // scan holds (a cluster scan) or the probe's answer (an OSD's own scan).
  // Duplicate-uuid purges keep their uuid referenced (the winner still
  // points at the data).
  const std::unordered_set<std::uint64_t>* live_files =
      view.live_files ? &*view.live_files : view.dms ? &referenced : nullptr;
  if (live_files != nullptr) {
    for (std::size_t i = 0; i < view.objects.size(); ++i) {
      for (const auto& [uuid, blocks] : view.objects[i]) {
        if (live_files->count(uuid)) continue;
        FsckFinding f;
        f.type = FsckFindingType::kLeakedObject;
        f.server = i;
        f.file_uuid = fs::Uuid(uuid);
        findings.push_back(std::move(f));
      }
    }
  }
  return findings;
}

std::vector<FsckFinding> Sightings::Confirm(
    const std::vector<FsckFinding>& findings,
    const std::function<bool(FsckFindingType)>& confirm) {
  std::vector<FsckFinding> act;
  std::set<std::string> seen;
  for (const FsckFinding& f : findings) {
    if (!confirm(f.type)) {
      act.push_back(f);
      continue;
    }
    std::string key = FindingKey(f);
    if (prev_.count(key)) act.push_back(f);
    seen.insert(std::move(key));
  }
  prev_ = std::move(seen);
  return act;
}

// ---------------------------------------------------------------- repair --

std::vector<RepairCall> RepairCalls(const FsckFinding& f,
                                    const ShardMap& shards,
                                    std::size_t object_stores) {
  const auto dms = [&f](std::uint16_t opcode, std::string payload) {
    return RepairCall{ServerRole::kDms, f.server, opcode, std::move(payload)};
  };
  const auto fms = [&f](std::uint16_t opcode, std::string payload) {
    return RepairCall{ServerRole::kFms, f.server, opcode, std::move(payload)};
  };
  switch (f.type) {
    case FsckFindingType::kMissingParent: {
      // Recreate the lost directory (root-owned) so its descendants become
      // reachable again; kExists means something recreated it first.
      const fs::Identity root{0, 0};
      return {RepairCall{
          ServerRole::kDms, shards.ShardOf(f.path), proto::kDmsMkdir,
          fs::Pack(f.path, std::uint32_t{0755}, root,
                   static_cast<std::uint64_t>(common::WallClockNs()))}};
    }
    case FsckFindingType::kDanglingDmsDirent:
      return {dms(proto::kDmsRepairDirent,
                  fs::Pack(f.path, f.name, std::uint8_t{0}))};
    case FsckFindingType::kDeadDirentList:
      return {dms(proto::kDmsDropDirents, fs::Pack(f.dir_uuid))};
    case FsckFindingType::kOrphanDir:
      return {dms(proto::kDmsRepairDirent,
                  fs::Pack(f.path, f.name, std::uint8_t{1}))};
    case FsckFindingType::kOrphanFile: {
      std::vector<RepairCall> calls{
          fms(proto::kFmsPurgeFile, fs::Pack(f.dir_uuid, f.name))};
      // The purged inode owned its data: drop the objects too.
      if (object_stores != 0 && f.file_uuid.raw() != 0) {
        calls.push_back(RepairCall{ServerRole::kObj,
                                   f.file_uuid.raw() % object_stores,
                                   proto::kObjPurge, fs::Pack(f.file_uuid)});
      }
      return calls;
    }
    case FsckFindingType::kMissingFmsDirent:
      return {fms(proto::kFmsRepairDirent,
                  fs::Pack(f.dir_uuid, f.name, std::uint8_t{1}))};
    case FsckFindingType::kDanglingFmsDirent:
      return {fms(proto::kFmsRepairDirent,
                  fs::Pack(f.dir_uuid, f.name, std::uint8_t{0}))};
    case FsckFindingType::kDuplicateUuid:
      // Purge the losing key only — the surviving inode references the
      // data objects, so they stay.
      return {fms(proto::kFmsPurgeFile, fs::Pack(f.dir_uuid, f.name))};
    case FsckFindingType::kLeakedObject:
      return {RepairCall{ServerRole::kObj, f.server, proto::kObjPurge,
                         fs::Pack(f.file_uuid)}};
    case FsckFindingType::kRenameIntent:
      return {};
  }
  return {};
}

RepairOutcome ClassifyRepair(std::uint16_t opcode,
                             const net::RpcResponse& resp) {
  if (!resp.ok()) {
    // I1: the directory exists again, or its own parent is still missing
    // (the next pass recreates it).
    const bool mkdir_moot =
        opcode == proto::kDmsMkdir &&
        (resp.code == ErrCode::kExists || resp.code == ErrCode::kNotFound);
    return mkdir_moot ? RepairOutcome::kSkipped : RepairOutcome::kFailed;
  }
  // Replies that say whether anything changed: the guarded dirent repairs'
  // [applied u8], kFmsPurgeFile's purged uuid (0 when no inode was left),
  // kObjPurge's dropped block count.
  common::Reader reply(resp.payload);
  bool changed = true;
  if (opcode == proto::kDmsRepairDirent || opcode == proto::kFmsRepairDirent) {
    changed = reply.GetU8() != 0;
  } else if (opcode == proto::kFmsPurgeFile || opcode == proto::kObjPurge) {
    changed = reply.GetU64() != 0;
  }
  return changed && reply.ok() ? RepairOutcome::kApplied
                               : RepairOutcome::kSkipped;
}

bool RollsForward(const fs::Uuid* dst_root, const fs::Uuid* src_root) {
  return dst_root != nullptr &&
         (src_root == nullptr || src_root->raw() == dst_root->raw());
}

Result<std::uint64_t> ResolveRenameIntent(const FsckFinding& f,
                                          const ShardCall& call) {
  // Forward: the destination owns the subtree — drop its marker, then Finish
  // the source (deletes the source copy).  Back: fence the destination
  // FIRST — its tombstone blocks a commit still queued anywhere, and the
  // purge drops a partial install (AbortIncoming keeps a subtree whose root
  // landed) — then Abort the source, the same ordering the client uses.
  // Each step runs only once the previous one succeeded.
  std::vector<std::tuple<std::size_t, std::uint16_t, std::string>> steps;
  if (!f.roll_forward || f.has_marker) {
    const auto purge = static_cast<std::uint8_t>(!f.roll_forward);
    steps.emplace_back(f.dst_shard, proto::kDmsAbortIncoming,
                       fs::Pack(f.txid, purge));
  }
  if (f.has_intent) {
    steps.emplace_back(
        f.src_shard,
        f.roll_forward ? proto::kDmsRenameFinish : proto::kDmsRenameAbort,
        fs::Pack(f.txid));
  }
  std::uint64_t applied = 0;
  for (auto& [shard, opcode, payload] : steps) {
    const net::RpcResponse resp = call(shard, opcode, std::move(payload));
    if (!resp.ok()) return ErrStatus(resp.code);
    ++applied;
  }
  return applied;
}

// ------------------------------------------------------- server surface --

net::RpcResponse RepairDirentRecord(kv::Kv* records, const std::string& key,
                                    bool add, bool child_exists) {
  const bool holds = child_exists == add && records->Contains(key) != add;
  if (holds && add && !records->Put(key, {}).ok()) {
    return net::RpcResponse{ErrCode::kIo, {}};
  }
  if (holds && !add) (void)records->Delete(key);
  return net::RpcResponse{ErrCode::kOk,
                          fs::Pack(static_cast<std::uint8_t>(holds))};
}

net::RpcResponse SnapshotRing::Begin(std::vector<std::string> payloads) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t epoch = next_epoch_++;
  pinned_[epoch] = std::move(payloads);
  while (pinned_.size() > kPinnedCap) pinned_.erase(pinned_.begin());
  return net::RpcResponse{ErrCode::kOk, fs::Pack(epoch)};
}

net::RpcResponse SnapshotRing::End(std::string_view request) {
  std::uint64_t epoch = 0;
  if (!fs::Unpack(request, epoch)) {
    return net::RpcResponse{ErrCode::kCorruption, {}};
  }
  std::lock_guard<std::mutex> lock(mu_);
  pinned_.erase(epoch);
  return net::RpcResponse{};
}

net::RpcResponse SnapshotRing::Scan(std::string_view request, std::size_t slot,
                                    const std::function<std::string()>& live) {
  // Live scans are racy against concurrent mutations like any online scan;
  // loco_fsck --live pins an epoch instead.
  if (request.empty()) return net::RpcResponse{ErrCode::kOk, live()};
  std::uint64_t epoch = 0;
  if (!fs::Unpack(request, epoch)) {
    return net::RpcResponse{ErrCode::kCorruption, {}};
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pinned_.find(epoch);
  if (it == pinned_.end() || slot >= it->second.size()) {
    return net::RpcResponse{ErrCode::kNotFound, {}};
  }
  return net::RpcResponse{ErrCode::kOk, it->second[slot]};
}

bool UuidBitmap::Parse(std::string_view request) {
  std::vector<std::string> entries;
  if (!fs::Unpack(request, entries)) return false;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    fs::Uuid uuid;
    if (!fs::Unpack(entries[i], uuid)) return false;
    wanted_[uuid.raw()].push_back(i);
  }
  bitmap_.assign(entries.size(), '\0');
  return true;
}

void UuidBitmap::Mark(fs::Uuid uuid) {
  const auto it = wanted_.find(uuid.raw());
  if (it == wanted_.end()) return;
  for (const std::size_t i : it->second) bitmap_[i] = '\1';
}

}  // namespace loco::core
