// core::FsckRunner — detection and repair of every invariant I1–I9 in
// core/invariants.h, over an in-process DMS + 2 FMS + 2 OSD cluster.  Each
// test fabricates one crash state (through the admin RPCs or by reaching
// directly into a store, exactly what an interrupted multi-key mutation
// leaves behind), asserts the dry run classifies it, repairs, and proves the
// next scan is clean.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/fsck.h"
#include "core/layout.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "core/ring.h"
#include "fs/wire.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::core {
namespace {

constexpr net::NodeId kDms = 0;
constexpr net::NodeId kFmsBase = 1;
constexpr net::NodeId kObjBase = 1000;

struct FsckFixture {
  FsckFixture() {
    transport.Register(kDms, &dms);
    LocoClient::Config cfg;
    cfg.dms = {kDms};
    for (int i = 0; i < 2; ++i) {
      FileMetadataServer::Options fo;
      fo.sid = static_cast<std::uint32_t>(i + 1);
      fms.push_back(std::make_unique<FileMetadataServer>(fo));
      transport.Register(kFmsBase + static_cast<net::NodeId>(i),
                         fms.back().get());
      cfg.fms.push_back(kFmsBase + static_cast<net::NodeId>(i));
    }
    for (int i = 0; i < 2; ++i) {
      objs.push_back(std::make_unique<ObjectStoreServer>());
      transport.Register(kObjBase + static_cast<net::NodeId>(i),
                         objs.back().get());
      cfg.object_stores.push_back(kObjBase + static_cast<net::NodeId>(i));
    }
    // fsck is an offline tool: no lease cache in the loop.
    cfg.cache_enabled = false;
    cfg.now = [this] { return clock; };
    client = std::make_unique<LocoClient>(transport, cfg);

    config.dms = cfg.dms;
    config.fms = cfg.fms;
    config.object_stores = cfg.object_stores;
  }

  // Blocking admin RPC (InProcTransport completes inline).
  net::RpcResponse Call(net::NodeId node, std::uint16_t opcode,
                        std::string payload) {
    net::RpcResponse out;
    transport.CallAsync(node, opcode, std::move(payload),
                        [&out](net::RpcResponse r) { out = std::move(r); });
    return out;
  }

  fs::Uuid DirUuid(const std::string& path) {
    std::string value;
    EXPECT_TRUE(dms.dir_kv().Get(path, &value).ok()) << path;
    return DirInodeLayout::Parse(value).uuid;
  }

  FsckReport DryRun() {
    FsckRunner runner(transport, config);
    auto report = runner.Run(FsckRunner::Options{});
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : FsckReport{};
  }

  FsckReport RepairRun() {
    FsckRunner runner(transport, config);
    FsckRunner::Options options;
    options.repair = true;
    auto report = runner.Run(options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : FsckReport{};
  }

  std::size_t CountType(const FsckReport& report, FsckFindingType type) {
    std::size_t n = 0;
    for (const auto& f : report.findings) n += f.type == type;
    return n;
  }

  std::uint64_t TotalObjects() {
    std::uint64_t n = 0;
    for (int i = 0; i < 2; ++i) {
      const auto resp =
          Call(kObjBase + static_cast<net::NodeId>(i), proto::kObjScanObjects,
               std::string());
      EXPECT_TRUE(resp.ok());
      std::vector<std::string> entries;
      EXPECT_TRUE(fs::Unpack(resp.payload, entries));
      n += entries.size();
    }
    return n;
  }

  std::uint64_t clock = 1;
  net::InProcTransport transport;
  DirectoryMetadataServer dms;
  std::vector<std::unique_ptr<FileMetadataServer>> fms;
  std::vector<std::unique_ptr<ObjectStoreServer>> objs;
  std::unique_ptr<LocoClient> client;
  FsckRunner::Config config;
};

TEST(FsckTest, CleanClusterIsClean) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a/b", 0755)).ok());
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/a/b/f" + std::to_string(i);
    ASSERT_TRUE(net::RunInline(fx.client->Create(path, 0644)).ok());
    ASSERT_TRUE(net::RunInline(fx.client->Write(path, 0, "data")).ok());
  }
  const FsckReport report = fx.DryRun();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.passes, 1u);
  EXPECT_EQ(report.repairs, 0u);
}

TEST(FsckTest, DanglingDmsDirentRemoved) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/live", 0755)).ok());
  // Crash state: a mkdir that appended the dirent but never wrote the
  // d-inode (or an rmdir that removed the inode first).
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Put(DirentKey(fx.DirUuid("/"), "ghost"), {})
          .ok());

  const FsckReport dry = fx.DryRun();
  ASSERT_EQ(dry.findings.size(), 1u);
  EXPECT_EQ(dry.findings[0].type, FsckFindingType::kDanglingDmsDirent);
  EXPECT_EQ(dry.findings[0].path, "/");
  EXPECT_EQ(dry.findings[0].name, "ghost");
  EXPECT_EQ(dry.repairs, 0u);  // dry run changes nothing

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  EXPECT_GE(repaired.repairs, 1u);
  auto entries = net::RunInline(fx.client->Readdir("/"));
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) EXPECT_NE(e.name, "ghost");
}

TEST(FsckTest, OrphanDirReattached) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  // Crash state: mkdir wrote the d-inode but the dirent append was lost.
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Delete(DirentKey(fx.DirUuid("/"), "d")).ok());

  const FsckReport dry = fx.DryRun();
  ASSERT_EQ(fx.CountType(dry, FsckFindingType::kOrphanDir), 1u);
  ASSERT_EQ(dry.findings.size(), 1u);
  EXPECT_EQ(dry.findings[0].Describe(),
            "orphan-dir: dir '/d' missing from the dirent records of '/'");

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  auto entries = net::RunInline(fx.client->Readdir("/"));
  ASSERT_TRUE(entries.ok());
  bool found = false;
  for (const auto& e : *entries) found |= e.name == "d";
  EXPECT_TRUE(found);
}

TEST(FsckTest, MissingParentRecreatedAndSubtreeReattached) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p/c", 0755)).ok());
  // Crash state: /p's d-inode vanished (torn B+-tree range move) leaving
  // the child, the stale dirent in "/", and /p's own dirent list behind.
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/p").ok());

  const FsckReport dry = fx.DryRun();
  EXPECT_GE(fx.CountType(dry, FsckFindingType::kMissingParent), 1u);
  ASSERT_FALSE(dry.findings.empty());
  EXPECT_EQ(dry.findings[0].Describe(),
            "missing-parent: dir '/p' has no d-inode but has descendants");

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  // The whole chain is reachable again.
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/p")).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/p/c")).ok());
}

TEST(FsckTest, MissingParentChainOfTwoRecreated) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p/q", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p/q/c", 0755)).ok());
  // Crash state: two levels of the chain lost their d-inodes.  Recreating
  // only the nearest one fails (its own parent is gone too), so the repair
  // must walk the whole missing chain, shallowest first.
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/p/q").ok());
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/p").ok());

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  for (const auto& f : repaired.findings) ADD_FAILURE() << f.Describe();
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/p/q/c")).ok());
}

TEST(FsckTest, StaleRepairsLeaveLiveEntriesAlone) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/x", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/x/f", 0644)).ok());
  const fs::Uuid dir = fx.DirUuid("/x");
  const auto names = [&fx](const std::string& path) {
    std::vector<std::string> out;
    auto entries = net::RunInline(fx.client->Readdir(path));
    EXPECT_TRUE(entries.ok());
    if (entries.ok()) {
      for (const auto& e : *entries) out.push_back(e.name);
    }
    return out;
  };
  const std::vector<std::string> root_before = names("/");
  const std::vector<std::string> x_before = names("/x");
  ASSERT_EQ(x_before, std::vector<std::string>{"f"});

  // Repairs computed from a scan the namespace has since moved past: each
  // one's finding no longer holds, so each must change nothing.
  EXPECT_TRUE(
      fx.Call(kDms, proto::kDmsRepairDirent,
              fs::Pack(std::string("/"), std::string("x"), std::uint8_t{0}))
          .ok());
  for (int i = 0; i < 2; ++i) {
    const net::NodeId fms = kFmsBase + static_cast<net::NodeId>(i);
    EXPECT_TRUE(fx.Call(fms, proto::kFmsRepairDirent,
                        fs::Pack(dir, std::string("f"), std::uint8_t{0}))
                    .ok());
    EXPECT_TRUE(fx.Call(fms, proto::kFmsRepairDirent,
                        fs::Pack(dir, std::string("ghost"), std::uint8_t{1}))
                    .ok());
  }

  EXPECT_EQ(names("/"), root_before);
  EXPECT_EQ(names("/x"), x_before);
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/x/f")).ok());
  EXPECT_TRUE(fx.DryRun().clean());
}

TEST(FsckTest, DeadDirentListDropped) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/gone", 0755)).ok());
  // Give /gone a subdirectory so its dirent list is non-empty, then lose
  // both d-inodes but keep the list (rmdir crash leftovers).
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/gone/sub", 0755)).ok());
  const fs::Uuid gone = fx.DirUuid("/gone");
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/gone/sub").ok());
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/gone").ok());
  ASSERT_TRUE(
      fx.Call(kDms, proto::kDmsRepairDirent,
              fs::Pack(std::string("/"), std::string("gone"), std::uint8_t{0}))
          .ok());

  const FsckReport dry = fx.DryRun();
  EXPECT_EQ(fx.CountType(dry, FsckFindingType::kDeadDirentList), 1u);
  EXPECT_EQ(dry.findings.size(), 1u);
  EXPECT_TRUE(HasDirents(fx.dms.dirent_kv(), gone));

  // The repair drops every record under the dead uuid prefix.
  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  EXPECT_FALSE(HasDirents(fx.dms.dirent_kv(), gone));
}

TEST(FsckTest, OrphanFilePurgedWithItsObjects) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/od", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/od/f", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Write("/od/f", 0, "payload")).ok());
  ASSERT_GE(fx.TotalObjects(), 1u);
  // Crash state: the directory's d-inode is gone but the file inode (and its
  // data) survived on the FMS/OSD.
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/od").ok());
  ASSERT_TRUE(
      fx.Call(kDms, proto::kDmsRepairDirent,
              fs::Pack(std::string("/"), std::string("od"), std::uint8_t{0}))
          .ok());

  const FsckReport dry = fx.DryRun();
  EXPECT_EQ(fx.CountType(dry, FsckFindingType::kOrphanFile), 1u);

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  EXPECT_EQ(fx.TotalObjects(), 0u);  // leaked data reclaimed
}

TEST(FsckTest, MissingFmsDirentReattached) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/m", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/m/f", 0644)).ok());
  const fs::Uuid dir = fx.DirUuid("/m");
  // Crash state: file inode written, FMS dirent append lost.  The owning
  // FMS is placement-dependent; exactly one of them holds the record.
  int dropped = 0;
  for (int i = 0; i < 2; ++i) {
    dropped += fx.fms[i]->mutable_dirent_kv().Delete(DirentKey(dir, "f")).ok();
  }
  ASSERT_EQ(dropped, 1);

  const FsckReport dry = fx.DryRun();
  EXPECT_EQ(fx.CountType(dry, FsckFindingType::kMissingFmsDirent), 1u);

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  auto entries = net::RunInline(fx.client->Readdir("/m"));
  ASSERT_TRUE(entries.ok());
  bool found = false;
  for (const auto& e : *entries) found |= e.name == "f";
  EXPECT_TRUE(found);
}

TEST(FsckTest, DanglingFmsDirentRemoved) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/x", 0755)).ok());
  const fs::Uuid dir = fx.DirUuid("/x");
  // Crash state: remove deleted the inode but not the dirent entry.
  ASSERT_TRUE(
      fx.fms[0]->mutable_dirent_kv().Put(DirentKey(dir, "phantom"), {}).ok());

  const FsckReport dry = fx.DryRun();
  ASSERT_EQ(dry.findings.size(), 1u);
  EXPECT_EQ(dry.findings[0].type, FsckFindingType::kDanglingFmsDirent);
  EXPECT_EQ(dry.findings[0].name, "phantom");

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
}

TEST(FsckTest, DuplicateUuidKeepsExactlyOneKey) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/dup", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/dup/f", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Write("/dup/f", 0, "bytes")).ok());
  const std::uint64_t objects_before = fx.TotalObjects();
  ASSERT_GE(objects_before, 1u);
  const fs::Uuid dir = fx.DirUuid("/dup");

  // Crash state: an interrupted f-rename copied the raw inode to its
  // destination key (the destination's placement server, as the real rename
  // protocol would) but never removed the source — same uuid, two keys.
  HashRing ring(fx.config.fms);
  const auto read = fx.Call(ring.Locate(FileKey(dir, "f")), proto::kFmsReadRaw,
                            fs::Pack(dir, std::string("f")));
  ASSERT_TRUE(read.ok());
  std::string access_raw, content_raw;
  ASSERT_TRUE(fs::Unpack(read.payload, access_raw, content_raw));
  const auto insert =
      fx.Call(ring.Locate(FileKey(dir, "g")), proto::kFmsInsertRaw,
              fs::Pack(dir, std::string("g"), access_raw, content_raw));
  ASSERT_TRUE(insert.ok());

  const FsckReport dry = fx.DryRun();
  EXPECT_EQ(fx.CountType(dry, FsckFindingType::kDuplicateUuid), 1u);

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  // Exactly one of the two names survived, and the winner's data was NOT
  // purged with the loser's key.
  const bool f_ok = net::RunInline(fx.client->StatFile("/dup/f")).ok();
  const bool g_ok = net::RunInline(fx.client->StatFile("/dup/g")).ok();
  EXPECT_NE(f_ok, g_ok);
  EXPECT_EQ(fx.TotalObjects(), objects_before);
}

TEST(FsckTest, LeakedObjectPurged) {
  FsckFixture fx;
  // Crash state: a client wrote data but died before kFmsCreate committed
  // (or the create was rolled back).  No inode references uuid 424242.
  const fs::Uuid leaked(424242);
  ASSERT_TRUE(fx.Call(kObjBase, proto::kObjWrite,
                      fs::Pack(leaked, std::uint64_t{0}, std::string("junk")))
                  .ok());
  ASSERT_EQ(fx.TotalObjects(), 1u);

  const FsckReport dry = fx.DryRun();
  ASSERT_EQ(dry.findings.size(), 1u);
  EXPECT_EQ(dry.findings[0].type, FsckFindingType::kLeakedObject);
  EXPECT_EQ(dry.findings[0].file_uuid.raw(), leaked.raw());

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  EXPECT_EQ(fx.TotalObjects(), 0u);
}

TEST(FsckTest, CompoundDamageConvergesWithinPassBudget) {
  FsckFixture fx;
  // A namespace, then several independent crash states at once.
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/w", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/w/s", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/w/s/keep", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/w/s/lost", 0644)).ok());

  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Put(DirentKey(fx.DirUuid("/w"), "bad"), {})
          .ok());
  const fs::Uuid s_uuid = fx.DirUuid("/w/s");
  int dropped = 0;
  for (int i = 0; i < 2; ++i) {
    dropped +=
        fx.fms[i]->mutable_dirent_kv().Delete(DirentKey(s_uuid, "lost")).ok();
  }
  ASSERT_EQ(dropped, 1);
  ASSERT_TRUE(fx.Call(kObjBase + 1, proto::kObjWrite,
                      fs::Pack(fs::Uuid(987654321), std::uint64_t{0},
                               std::string("leak")))
                  .ok());

  const FsckReport dry = fx.DryRun();
  EXPECT_GE(dry.findings.size(), 3u);

  const FsckReport repaired = fx.RepairRun();
  EXPECT_TRUE(repaired.clean());
  EXPECT_LE(repaired.passes, 5u);
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/w/s/keep")).ok());
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/w/s/lost")).ok());
  // A second repairing run is a no-op: repairs are idempotent.
  const FsckReport again = fx.RepairRun();
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.repairs, 0u);
}

// ------------------------------------------------------------- live mode --

TEST(FsckTest, SnapshotEpochsPinPointInTimeState) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/before", 0755)).ok());

  const auto begin = fx.Call(kDms, proto::kCtlSnapshotBegin, {});
  ASSERT_TRUE(begin.ok());
  std::uint64_t epoch = 0;
  ASSERT_TRUE(fs::Unpack(begin.payload, epoch));

  // Mutate after pinning: the live scan sees the new directory, the pinned
  // epoch does not.
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/after", 0755)).ok());
  auto count_dirs = [&](std::string payload) -> std::size_t {
    const auto resp = fx.Call(kDms, proto::kDmsScanDirs, std::move(payload));
    EXPECT_TRUE(resp.ok());
    std::vector<std::string> entries;
    EXPECT_TRUE(fs::Unpack(resp.payload, entries));
    return entries.size();
  };
  EXPECT_EQ(count_dirs({}), 3u);                // "/", /before, /after
  EXPECT_EQ(count_dirs(fs::Pack(epoch)), 2u);   // pinned: no /after

  // Released (or unknown) epochs answer kNotFound.
  ASSERT_TRUE(fx.Call(kDms, proto::kCtlSnapshotEnd, fs::Pack(epoch)).ok());
  EXPECT_EQ(fx.Call(kDms, proto::kDmsScanDirs, fs::Pack(epoch)).code,
            ErrCode::kNotFound);
  EXPECT_EQ(fx.Call(kDms, proto::kDmsScanDirs, fs::Pack(epoch + 999)).code,
            ErrCode::kNotFound);
}

TEST(FsckTest, SnapshotRingEvictsOldestWhenFull) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  const auto first = fx.Call(kDms, proto::kCtlSnapshotBegin, {});
  ASSERT_TRUE(first.ok());
  std::uint64_t first_epoch = 0;
  ASSERT_TRUE(fs::Unpack(first.payload, first_epoch));
  // The ring holds 4 pinned snapshots; the 5th Begin evicts the oldest.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.Call(kDms, proto::kCtlSnapshotBegin, {}).ok());
  }
  EXPECT_EQ(fx.Call(kDms, proto::kDmsScanDirs, fs::Pack(first_epoch)).code,
            ErrCode::kNotFound);
}

TEST(FsckTest, LiveCleanClusterIsClean) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/a/f", 0644)).ok());

  FsckRunner runner(fx.transport, fx.config);
  FsckRunner::Options options;
  options.live = true;
  auto report = runner.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->passes, 1u);  // a clean pinned scan ends the run
}

TEST(FsckTest, LiveDryRunConfirmsFindingsAcrossTwoPasses) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/live", 0755)).ok());
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Put(DirentKey(fx.DirUuid("/"), "ghost"), {})
          .ok());

  FsckRunner runner(fx.transport, fx.config);
  FsckRunner::Options options;
  options.live = true;
  auto report = runner.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Persistent damage survives snapshot-to-snapshot, so the dry run reports
  // it — but only after a second pass confirmed it, and without repairing.
  EXPECT_EQ(report->passes, 2u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].type, FsckFindingType::kDanglingDmsDirent);
  EXPECT_EQ(report->repairs, 0u);
}

TEST(FsckTest, LiveRepairFixesConfirmedDamage) {
  FsckFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/w", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/w/keep", 0644)).ok());
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Put(DirentKey(fx.DirUuid("/"), "ghost"), {})
          .ok());
  ASSERT_TRUE(fx.Call(kObjBase, proto::kObjWrite,
                      fs::Pack(fs::Uuid(13371337), std::uint64_t{0},
                               std::string("leak")))
                  .ok());

  FsckRunner runner(fx.transport, fx.config);
  FsckRunner::Options options;
  options.live = true;
  options.repair = true;
  auto report = runner.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean());
  EXPECT_GE(report->repairs, 2u);
  EXPECT_GE(report->passes, 3u);  // suspect, confirm+repair, verify clean

  // The cluster still serves and the healthy file survived.
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/w/keep")).ok());
  const FsckReport offline = fx.DryRun();
  EXPECT_TRUE(offline.clean());
}

}  // namespace
}  // namespace loco::core
