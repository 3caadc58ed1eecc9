#include "core/fsck.h"

#include <algorithm>
#include <utility>

#include "core/proto.h"
#include "fs/wire.h"

namespace loco::core {

FsckRunner::FsckRunner(net::Channel& channel, Config config)
    : channel_(channel),
      config_(std::move(config)),
      shards_(config_.dms.size()) {}

net::RpcResponse FsckRunner::Call(net::NodeId node, std::uint16_t opcode,
                                  std::string payload) {
  return net::CallBlocking(
      channel_, node, opcode, std::move(payload),
      net::CallMeta{.priority = net::Priority::kBackground});
}

Result<ScanView> FsckRunner::ScanPinned() {
  // Pin every server in Scan's order, scan the pinned epochs, release them.
  // Releases are best-effort: servers also evict pinned snapshots on their
  // own (bounded ring), so a lost End just ages out.
  std::vector<net::NodeId> nodes = config_.dms;
  nodes.insert(nodes.end(), config_.fms.begin(), config_.fms.end());
  nodes.insert(nodes.end(), config_.object_stores.begin(),
               config_.object_stores.end());
  std::vector<std::uint64_t> epochs;
  Status pinned = OkStatus();
  for (std::size_t i = 0; i < nodes.size() && pinned.ok(); ++i) {
    const net::RpcResponse r = Call(nodes[i], proto::kCtlSnapshotBegin, {});
    std::uint64_t epoch = 0;
    if (!r.ok()) {
      pinned = ErrStatus(r.code);
    } else if (!fs::Unpack(r.payload, epoch)) {
      pinned = ErrStatus(ErrCode::kCorruption);
    }
    epochs.push_back(epoch);
  }
  Result<ScanView> view =
      pinned.ok() ? Scan(&epochs) : Result<ScanView>(pinned);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (epochs[i] != 0) {
      (void)Call(nodes[i], proto::kCtlSnapshotEnd, fs::Pack(epochs[i]));
    }
  }
  return view;
}

Result<ScanView> FsckRunner::Scan(const std::vector<std::uint64_t>* epochs) {
  // An empty payload scans the live stores, [epoch] a pinned cut (epochs
  // start at 1).
  const auto fetch = [this](net::NodeId node, std::uint16_t opcode,
                            std::uint64_t epoch, std::string* out) -> Status {
    net::RpcResponse r =
        Call(node, opcode, epoch != 0 ? fs::Pack(epoch) : std::string{});
    if (!r.ok()) return ErrStatus(r.code);
    *out = std::move(r.payload);
    return OkStatus();
  };
  ScanView view;
  std::size_t next = 0;  // index into *epochs
  for (std::size_t i = 0; i < config_.dms.size(); ++i) {
    const std::uint64_t epoch = epochs ? (*epochs)[next++] : 0;
    std::string dirs, dirents, intents;
    LOCO_RETURN_IF_ERROR(
        fetch(config_.dms[i], proto::kDmsScanDirs, epoch, &dirs));
    LOCO_RETURN_IF_ERROR(
        fetch(config_.dms[i], proto::kDmsScanDirents, epoch, &dirents));
    LOCO_RETURN_IF_ERROR(
        fetch(config_.dms[i], proto::kDmsScanIntents, epoch, &intents));
    LOCO_RETURN_IF_ERROR(DecodeDmsScan(i, dirs, dirents, intents, &view));
  }
  for (std::size_t i = 0; i < config_.fms.size(); ++i) {
    const std::uint64_t epoch = epochs ? (*epochs)[next++] : 0;
    std::string files, dirents;
    LOCO_RETURN_IF_ERROR(
        fetch(config_.fms[i], proto::kFmsScanFiles, epoch, &files));
    LOCO_RETURN_IF_ERROR(
        fetch(config_.fms[i], proto::kFmsScanDirents, epoch, &dirents));
    LOCO_RETURN_IF_ERROR(DecodeFmsScan(files, dirents, &view));
  }
  for (std::size_t i = 0; i < config_.object_stores.size(); ++i) {
    const std::uint64_t epoch = epochs ? (*epochs)[next++] : 0;
    std::string objects;
    LOCO_RETURN_IF_ERROR(fetch(config_.object_stores[i],
                               proto::kObjScanObjects, epoch, &objects));
    LOCO_RETURN_IF_ERROR(DecodeObjectScan(objects, &view));
  }
  return view;
}

Result<std::uint64_t> FsckRunner::Repair(
    const std::vector<FsckFinding>& findings) {
  std::uint64_t applied = 0;
  for (const FsckFinding& f : findings) {
    if (f.type == FsckFindingType::kRenameIntent) {
      auto n = ResolveRenameIntent(
          f, [this](std::size_t shard, std::uint16_t opcode,
                    std::string payload) {
            return Call(config_.dms[shard], opcode, std::move(payload));
          });
      LOCO_RETURN_IF_ERROR(n.status());
      applied += *n;
      continue;
    }
    for (RepairCall& call :
         RepairCalls(f, shards_, config_.object_stores.size())) {
      const std::vector<net::NodeId>& nodes =
          call.role == ServerRole::kDms   ? config_.dms
          : call.role == ServerRole::kFms ? config_.fms
                                          : config_.object_stores;
      const net::RpcResponse resp =
          Call(nodes[call.server], call.opcode, std::move(call.payload));
      switch (ClassifyRepair(call.opcode, resp)) {
        case RepairOutcome::kApplied: ++applied; break;
        case RepairOutcome::kSkipped: break;
        case RepairOutcome::kFailed: return ErrStatus(resp.code);
      }
    }
  }
  return applied;
}

Result<FsckReport> FsckRunner::Run(const Options& options) {
  FsckReport report;
  Sightings sightings;
  // Live mode needs two looks to confirm anything; an offline run scans once
  // more after its last repair pass to report what is left.
  const std::uint32_t passes = options.live
                                   ? std::max(options.max_passes, 2u)
                                   : std::max(options.max_passes, 1u) + 1;
  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    auto view = options.live ? ScanPinned() : Scan(nullptr);
    LOCO_RETURN_IF_ERROR(view.status());
    const std::vector<FsckFinding> findings = Detect(*view, shards_);
    ++report.passes;
    report.findings =
        options.live
            ? sightings.Confirm(findings, [](FsckFindingType) { return true; })
            : findings;
    if (findings.empty()) break;             // clean scan: nothing suspected
    if (options.live && pass == 0) continue;  // first look: nothing confirmable
    // A dry run reports; so does the offline run's final scan.
    if (!options.repair || (!options.live && pass + 1 == passes)) break;
    auto applied = Repair(report.findings);
    LOCO_RETURN_IF_ERROR(applied.status());
    report.repairs += *applied;
    // Live: unconfirmed suspects (in-flight ops or fresh damage) get another
    // pass.
  }
  return report;
}

}  // namespace loco::core
