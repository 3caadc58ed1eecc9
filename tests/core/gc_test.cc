// Housekeeping plane (docs/HOUSEKEEPING.md): GcManager scheduling and status
// codec, the per-server incremental GC steps (DMS I1–I4, FMS I5–I7, OSD I9)
// with their two-cycle confirmation for destructive reclaims, the "probe
// error is not death" rule, and the admin RPC surface (kCtlGcStatus,
// k*CheckUuids).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/gc.h"
#include "core/layout.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::core {
namespace {

constexpr std::uint32_t kBigBudget = 1u << 20;

// Probes for the cross-server detectors.
UuidProbe AllDead() {
  return [](const std::vector<fs::Uuid>& uuids) {
    return Result<std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>(uuids.size(), 0));
  };
}
UuidProbe AllAlive() {
  return [](const std::vector<fs::Uuid>& uuids) {
    return Result<std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>(uuids.size(), 1));
  };
}
UuidProbe Unreachable() {
  return [](const std::vector<fs::Uuid>&) {
    return Result<std::vector<std::uint8_t>>(ErrCode::kUnavailable, "down");
  };
}

// ------------------------------------------------------------- GcManager --

TEST(GcManagerTest, StatusPayloadRoundTrip) {
  GcManager gc;
  gc.AddTask("alpha", [](std::uint32_t) { return GcStepResult{3, 1}; });
  gc.AddTask("beta", [](std::uint32_t) { return GcStepResult{0, 0}; });

  const std::string payload = gc.StatusPayload();
  auto status = GcManager::ParseStatusPayload(payload);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_FALSE(status->running);
  EXPECT_EQ(status->cycles, 0u);
  ASSERT_EQ(status->tasks.size(), 2u);
  EXPECT_EQ(status->tasks[0].name, "alpha");
  EXPECT_EQ(status->tasks[1].name, "beta");

  EXPECT_FALSE(GcManager::ParseStatusPayload("garbage").ok());
}

TEST(GcManagerTest, RunsRegisteredTasksRoundRobin) {
  GcManager::Options options;
  options.ops_per_sec = 1e6;  // effectively unthrottled
  options.batch_ops = 16;
  GcManager gc(options);
  std::atomic<std::uint64_t> a_calls{0}, b_calls{0};
  std::atomic<std::uint32_t> max_budget{0};
  gc.AddTask("a", [&](std::uint32_t budget) {
    a_calls.fetch_add(1);
    std::uint32_t seen = max_budget.load();
    while (budget > seen && !max_budget.compare_exchange_weak(seen, budget)) {
    }
    return GcStepResult{1, 0};
  });
  gc.AddTask("b", [&](std::uint32_t) {
    b_calls.fetch_add(1);
    return GcStepResult{1, 1};
  });

  gc.Start();
  EXPECT_TRUE(gc.running());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while ((a_calls.load() < 3 || b_calls.load() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gc.Stop();
  EXPECT_FALSE(gc.running());

  EXPECT_GE(a_calls.load(), 3u);
  EXPECT_GE(b_calls.load(), 3u);
  EXPECT_LE(max_budget.load(), options.batch_ops);
  const GcManager::Status status = gc.GetStatus();
  EXPECT_GE(status.cycles, 1u);
  EXPECT_GE(status.ops, a_calls.load() + b_calls.load());
  EXPECT_GE(status.reclaimed, b_calls.load());
  ASSERT_EQ(status.tasks.size(), 2u);
  EXPECT_EQ(status.tasks[0].calls, a_calls.load());
}

TEST(GcManagerTest, TokenBucketBoundsSpend) {
  GcManager::Options options;
  options.ops_per_sec = 200.0;
  options.batch_ops = 10;
  GcManager gc(options);
  gc.AddTask("spender", [](std::uint32_t budget) {
    return GcStepResult{budget, 0};  // always spends its full grant
  });
  gc.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gc.Stop();
  // 200ms at 200 ops/s plus the initial burst (bucket cap = 4 × batch = 40):
  // generous slack for scheduler jitter, but far below an unthrottled run
  // (which would spend tens of thousands).
  EXPECT_LE(gc.GetStatus().ops, 400u);
  EXPECT_GE(gc.GetStatus().ops, 1u);
}

TEST(GcManagerTest, PacingFactorFollowsTheLoadSignal) {
  GcManager gc;

  // No signal: full rate.
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), 1.0);

  common::Nanos delay = 0;
  gc.SetLoadSignal([&delay] { return delay; });
  delay = GcManager::kLoadLowNs;  // at the low watermark
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), 1.0);
  delay = 10 * GcManager::kLoadHighNs;  // far above the high watermark
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), GcManager::kLoadMinFactor);
  delay = (GcManager::kLoadLowNs + GcManager::kLoadHighNs) / 2;  // halfway
  EXPECT_NEAR(gc.CurrentPacingFactor(),
              (1.0 + GcManager::kLoadMinFactor) / 2, 1e-9);
}

// Acceptance: gc.throttle_ns rises under injected foreground saturation and
// the scan rate recovers once the load signal drops (ROADMAP item 5).
TEST(GcManagerTest, AdaptivePacingYieldsToForegroundLoad) {
  GcManager::Options options;
  options.ops_per_sec = 2000.0;
  options.batch_ops = 10;
  GcManager gc(options);
  std::atomic<common::Nanos> qdelay{0};
  gc.SetLoadSignal(
      [&qdelay] { return qdelay.load(std::memory_order_relaxed); });
  gc.AddTask("spender", [](std::uint32_t budget) {
    return GcStepResult{budget, 0};  // always spends its full grant
  });
  auto throttle_ns = [] {
    return common::MetricsRegistry::Default()
        .GetCounter("gc.throttle_ns")
        .value();
  };

  gc.Start();
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t ops_idle = gc.GetStatus().ops;

  // Foreground saturation: queue delay far above kLoadHighNs collapses the
  // refill rate to kLoadMinFactor, so the same wall-clock window grants far
  // fewer ops and the extra waiting lands in gc.throttle_ns.
  qdelay.store(10 * GcManager::kLoadHighNs, std::memory_order_relaxed);
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), GcManager::kLoadMinFactor);
  const std::uint64_t throttle_at_saturation = throttle_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t ops_loaded = gc.GetStatus().ops - ops_idle;
  EXPECT_GT(throttle_ns(), throttle_at_saturation);
  EXPECT_LT(ops_loaded, ops_idle);

  // Load drops: the configured rate comes back.
  qdelay.store(0, std::memory_order_relaxed);
  EXPECT_DOUBLE_EQ(gc.CurrentPacingFactor(), 1.0);
  const std::uint64_t ops_before_recovery = gc.GetStatus().ops;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gc.Stop();
  const std::uint64_t ops_recovered = gc.GetStatus().ops - ops_before_recovery;
  EXPECT_GT(ops_recovered, ops_loaded);
}

// ------------------------------------------------------------ DMS GcStep --

struct DmsGcFixture {
  DmsGcFixture() {
    transport.Register(0, &dms);
    FileMetadataServer::Options fo;
    fo.sid = 1;
    fms = std::make_unique<FileMetadataServer>(fo);
    transport.Register(1, fms.get());
    LocoClient::Config cfg;
    cfg.dms = {0};
    cfg.fms = {1};
    cfg.cache_enabled = false;
    cfg.now = [this] { return ++clock; };
    client = std::make_unique<LocoClient>(transport, cfg);
  }

  net::RpcResponse Call(std::uint16_t opcode, std::string payload) {
    net::RpcResponse out;
    transport.CallAsync(0, opcode, std::move(payload),
                        [&out](net::RpcResponse r) { out = std::move(r); });
    return out;
  }

  fs::Uuid DirUuid(const std::string& path) {
    std::string value;
    EXPECT_TRUE(dms.dir_kv().Get(path, &value).ok()) << path;
    return DirInodeLayout::Parse(value).uuid;
  }

  bool RootLists(const std::string& name) {
    auto entries = net::RunInline(client->Readdir("/"));
    EXPECT_TRUE(entries.ok());
    if (!entries.ok()) return false;
    for (const auto& e : *entries) {
      if (e.name == name) return true;
    }
    return false;
  }

  std::uint64_t clock = 0;
  net::InProcTransport transport;
  DirectoryMetadataServer dms;
  std::unique_ptr<FileMetadataServer> fms;
  std::unique_ptr<LocoClient> client;
};

TEST(DmsGcStepTest, CleanNamespaceFindsNothing) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a/b", 0755)).ok());
  for (int i = 0; i < 4; ++i) {
    const GcStepResult r = fx.dms.GcStep(kBigBudget);
    EXPECT_EQ(r.reclaimed, 0u);
    EXPECT_GT(r.ops, 0u);  // harvest itself costs ops
  }
}

TEST(DmsGcStepTest, DanglingDirentDropped) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/live", 0755)).ok());
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Put(DirentKey(fx.DirUuid("/"), "ghost"), {})
          .ok());
  ASSERT_TRUE(fx.RootLists("ghost"));

  fx.dms.GcStep(kBigBudget);                       // harvest: queue the drop
  const GcStepResult r = fx.dms.GcStep(kBigBudget);  // apply
  EXPECT_GE(r.reclaimed, 1u);
  EXPECT_FALSE(fx.RootLists("ghost"));
  EXPECT_TRUE(fx.RootLists("live"));
}

TEST(DmsGcStepTest, OrphanDirReattached) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(
      fx.dms.mutable_dirent_kv().Delete(DirentKey(fx.DirUuid("/"), "d")).ok());
  ASSERT_FALSE(fx.RootLists("d"));

  fx.dms.GcStep(kBigBudget);
  const GcStepResult r = fx.dms.GcStep(kBigBudget);
  EXPECT_GE(r.reclaimed, 1u);
  EXPECT_TRUE(fx.RootLists("d"));
}

TEST(DmsGcStepTest, MissingParentChainRecreated) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/p/c", 0755)).ok());
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/p").ok());
  ASSERT_FALSE(net::RunInline(fx.client->Stat("/p")).ok());

  // Repairs cascade (recreate /p, then relink /p/c): give it a few rounds.
  for (int i = 0; i < 6; ++i) fx.dms.GcStep(kBigBudget);
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/p")).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/p/c")).ok());
}

TEST(DmsGcStepTest, DeadDirentListNeedsTwoSightings) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/gone", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/gone/sub", 0755)).ok());
  const fs::Uuid uuid = fx.DirUuid("/gone");
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/gone/sub").ok());
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/gone").ok());
  ASSERT_TRUE(fx.Call(proto::kDmsRepairDirent,
                      fs::Pack(std::string("/"), std::string("gone"),
                               std::uint8_t{0}))
                  .ok());
  // The dead uuid still has its record ("sub").
  ASSERT_TRUE(HasDirents(fx.dms.dirent_kv(), uuid));

  // Sighting #1: candidate only — nothing destructive yet.
  fx.dms.GcStep(kBigBudget);
  EXPECT_TRUE(HasDirents(fx.dms.dirent_kv(), uuid));
  // Sighting #2 queues the drop; the next step applies it.
  fx.dms.GcStep(kBigBudget);
  const GcStepResult r = fx.dms.GcStep(kBigBudget);
  EXPECT_GE(r.reclaimed, 1u);
  EXPECT_FALSE(HasDirents(fx.dms.dirent_kv(), uuid));
}

TEST(DmsGcStepTest, CheckUuidsBitmapAndGcStatusRpc) {
  DmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a", 0755)).ok());
  const fs::Uuid live = fx.DirUuid("/a");
  const fs::Uuid dead(0xdead0001);

  const auto resp = fx.Call(
      proto::kDmsCheckUuids,
      fs::Pack(std::vector<std::string>{fs::Pack(live), fs::Pack(dead)}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.payload.size(), 2u);
  EXPECT_EQ(resp.payload[0], '\1');
  EXPECT_EQ(resp.payload[1], '\0');

  // kCtlGcStatus: unavailable until a manager is wired, then a live payload.
  EXPECT_EQ(fx.Call(proto::kCtlGcStatus, {}).code, ErrCode::kUnavailable);
  GcManager gc;
  fx.dms.SetGcManager(&gc);
  const auto status_resp = fx.Call(proto::kCtlGcStatus, {});
  ASSERT_TRUE(status_resp.ok());
  EXPECT_TRUE(GcManager::ParseStatusPayload(status_resp.payload).ok());
}

// ------------------------------------------------------------ FMS GcStep --

struct FmsGcFixture {
  FmsGcFixture() {
    transport.Register(0, &dms);
    FileMetadataServer::Options fo;
    fo.sid = 1;
    fms = std::make_unique<FileMetadataServer>(fo);
    transport.Register(1, fms.get());
    transport.Register(1000, &osd);
    LocoClient::Config cfg;
    cfg.dms = {0};
    cfg.fms = {1};
    cfg.object_stores = {1000};
    cfg.cache_enabled = false;
    cfg.now = [this] { return ++clock; };
    client = std::make_unique<LocoClient>(transport, cfg);
  }

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

  std::uint64_t clock = 0;
  net::InProcTransport transport;
  DirectoryMetadataServer dms;
  std::unique_ptr<FileMetadataServer> fms;
  ObjectStoreServer osd;
  std::unique_ptr<LocoClient> client;
};

TEST(FmsGcStepTest, DanglingDirentDroppedWithoutProbe) {
  FmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/x", 0755)).ok());
  const fs::Uuid dir = fx.DirUuid("/x");
  ASSERT_TRUE(
      fx.fms->mutable_dirent_kv().Put(DirentKey(dir, "phantom"), {}).ok());

  // I6/I7 need no cross-server probe: a null UuidProbe only disables I5.
  fx.fms->GcStep(kBigBudget, nullptr);
  const GcStepResult r = fx.fms->GcStep(kBigBudget, nullptr);
  EXPECT_GE(r.reclaimed, 1u);
  auto entries = net::RunInline(fx.client->Readdir("/x"));
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(FmsGcStepTest, MissingDirentReattached) {
  FmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/m", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/m/f", 0644)).ok());
  const fs::Uuid dir = fx.DirUuid("/m");
  ASSERT_TRUE(fx.fms->mutable_dirent_kv().Delete(DirentKey(dir, "f")).ok());

  fx.fms->GcStep(kBigBudget, nullptr);
  const GcStepResult r = fx.fms->GcStep(kBigBudget, nullptr);
  EXPECT_GE(r.reclaimed, 1u);
  auto entries = net::RunInline(fx.client->Readdir("/m"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "f");
}

TEST(FmsGcStepTest, OrphanFileNeedsTwoDeadSightings) {
  FmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/od", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/od/f", 0644)).ok());
  const fs::Uuid dir = fx.DirUuid("/od");
  // The directory dies on the DMS; the file inode survives on the FMS.
  ASSERT_TRUE(fx.dms.mutable_dir_kv().Delete("/od").ok());
  ASSERT_TRUE(fx.Call(0, proto::kDmsRepairDirent,
                      fs::Pack(std::string("/"), std::string("od"),
                               std::uint8_t{0}))
                  .ok());

  const auto have_inode = [&] {
    return fx.Call(1, proto::kFmsGetAttr, fs::Pack(dir, std::string("f"))).ok();
  };
  ASSERT_TRUE(have_inode());

  // Sighting #1: candidate only.
  fx.fms->GcStep(kBigBudget, AllDead());
  EXPECT_TRUE(have_inode());
  // Sighting #2 queues the purge; the next step applies it.
  fx.fms->GcStep(kBigBudget, AllDead());
  const GcStepResult r = fx.fms->GcStep(kBigBudget, AllDead());
  EXPECT_GE(r.reclaimed, 1u);
  EXPECT_FALSE(have_inode());
}

TEST(FmsGcStepTest, ProbeErrorOrLivenessBlocksPurge) {
  FmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/keep", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/keep/f", 0644)).ok());

  // An unreachable DMS must never read as "directory dead" — and a live
  // directory obviously must not either.  Alternate the two for many rounds.
  for (int i = 0; i < 6; ++i) {
    fx.fms->GcStep(kBigBudget, i % 2 == 0 ? Unreachable() : AllAlive());
  }
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/keep/f")).ok());

  // Even interleaving dead sightings with probe failures: one dead sighting
  // followed by an error resets nothing destructive into the queue...
  fx.fms->GcStep(kBigBudget, AllDead());
  fx.fms->GcStep(kBigBudget, Unreachable());
  fx.fms->GcStep(kBigBudget, AllAlive());
  EXPECT_TRUE(net::RunInline(fx.client->StatFile("/keep/f")).ok());
}

// ------------------------------------------------------------ OSD GcStep --

TEST(ObjGcStepTest, LeakedObjectNeedsTwoDeadSightings) {
  ObjectStoreServer osd;
  net::InProcTransport transport;
  transport.Register(0, &osd);
  net::RpcResponse resp;
  transport.CallAsync(0, proto::kObjWrite,
                      fs::Pack(fs::Uuid(42), std::uint64_t{0},
                               std::string("junk")),
                      [&resp](net::RpcResponse r) { resp = std::move(r); });
  ASSERT_TRUE(resp.ok());
  ASSERT_GE(osd.BlockCount(), 1u);

  osd.GcStep(kBigBudget, AllDead());  // sighting #1: candidate only
  EXPECT_GE(osd.BlockCount(), 1u);
  osd.GcStep(kBigBudget, AllDead());  // sighting #2: queue the purge
  const GcStepResult r = osd.GcStep(kBigBudget, AllDead());
  EXPECT_GE(r.reclaimed, 1u);
  EXPECT_EQ(osd.BlockCount(), 0u);
}

TEST(ObjGcStepTest, AliveOrUnreachableObjectsSurvive) {
  ObjectStoreServer osd;
  net::InProcTransport transport;
  transport.Register(0, &osd);
  net::RpcResponse resp;
  transport.CallAsync(0, proto::kObjWrite,
                      fs::Pack(fs::Uuid(43), std::uint64_t{0},
                               std::string("keep")),
                      [&resp](net::RpcResponse r) { resp = std::move(r); });
  ASSERT_TRUE(resp.ok());

  for (int i = 0; i < 6; ++i) {
    osd.GcStep(kBigBudget, i % 2 == 0 ? AllAlive() : Unreachable());
  }
  // A dead sighting interrupted by an outage must not accumulate either.
  osd.GcStep(kBigBudget, AllDead());
  osd.GcStep(kBigBudget, Unreachable());
  osd.GcStep(kBigBudget, AllAlive());
  EXPECT_GE(osd.BlockCount(), 1u);
}

TEST(ObjGcStepTest, CheckUuidsOnFmsReportsInodeLiveness) {
  FmsGcFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/c", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/c/f", 0644)).ok());
  auto attr = net::RunInline(fx.client->StatFile("/c/f"));
  ASSERT_TRUE(attr.ok());

  const auto resp = fx.Call(
      1, proto::kFmsCheckUuids,
      fs::Pack(std::vector<std::string>{fs::Pack(attr->uuid),
                                        fs::Pack(fs::Uuid(0xdead0002))}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.payload.size(), 2u);
  EXPECT_EQ(resp.payload[0], '\1');
  EXPECT_EQ(resp.payload[1], '\0');
}

}  // namespace
}  // namespace loco::core
