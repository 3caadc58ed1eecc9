// Cross-shard rename chaos matrix (ISSUE 10 acceptance): two real locofs_dmsd
// shard processes, a real FMS and OSD, and the crash points of the rename
// two-phase protocol (docs/SHARDING.md):
//
//   * the source shard SIGKILLed right after prepare,
//   * the destination shard SIGKILLed right after commit (before finish),
//   * the client walking away mid-transaction,
//   * an abandoned transaction left to the daemons' own intent-resolution GC.
//
// After every crash the matrix requires: `loco_fsck --repair` (or the GC)
// resolves the transaction to exactly-one-of {from, to}, a read-only fsck
// pass finds nothing left, and no live intent records remain on either shard.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/proto.h"
#include "core/shard.h"
#include "daemon_harness.h"
#include "fs/client.h"
#include "fs/wire.h"
#include "net/task.h"
#include "net/tcp.h"
#include "net/wire.h"

#if defined(LOCO_DAEMON_DIR) && defined(LOCO_TOOL_DIR)

namespace loco {
namespace {

using testutil::Daemon;
using testutil::Eventually;
using testutil::Kill9;
using testutil::Spawn;
using testutil::WallClockNs;

const fs::Identity kWho{1000, 1000};

// TcpChannel completes callbacks inline, so a plain out-param works.
net::RpcResponse BlockingCall(net::Channel& channel, net::NodeId node,
                              std::uint16_t opcode, std::string payload) {
  net::RpcResponse out;
  channel.CallAsync(node, opcode, std::move(payload),
                    [&out](net::RpcResponse r) { out = std::move(r); });
  return out;
}

class ShardCluster {
 public:
  explicit ShardCluster(const std::string& tag) {
    store_root_ = ::testing::TempDir() + "loco_shard_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(::getpid()));
    std::string cleanup = "rm -rf '" + store_root_ + "'";
    (void)std::system(cleanup.c_str());
    ::mkdir(store_root_.c_str(), 0755);

    const std::string daemon_dir = LOCO_DAEMON_DIR;
    for (int i = 0; i < 2; ++i) {
      Daemon d;
      d.binary = daemon_dir + "/locofs_dmsd";
      d.args = {"--shard-id", std::to_string(i),
                "--store-dir", store_root_ + "/dms" + std::to_string(i),
                "--workers", "2"};
      dms_.push_back(std::move(d));
    }
    fms_.binary = daemon_dir + "/locofs_fmsd";
    fms_.args = {"--sid", "1", "--store-dir", store_root_ + "/fms1",
                 "--workers", "2"};
    osd_.binary = daemon_dir + "/locofs_osd";
    osd_.args = {"--store-dir", store_root_ + "/osd", "--workers", "2"};
  }

  ~ShardCluster() {
    for (auto& d : dms_) Kill9(&d);
    Kill9(&fms_);
    Kill9(&osd_);
  }

  bool BinariesPresent() const {
    return ::access(dms_[0].binary.c_str(), X_OK) == 0 &&
           ::access(fms_.binary.c_str(), X_OK) == 0 &&
           ::access(osd_.binary.c_str(), X_OK) == 0 &&
           ::access(FsckBinary().c_str(), X_OK) == 0;
  }

  bool StartAll() {
    for (auto& d : dms_) {
      if (!Spawn(&d)) return false;
    }
    return Spawn(&fms_) && Spawn(&osd_);
  }

  // Restart both shards with the intent-resolution GC armed: each daemon
  // gets the full shard endpoint list (known only after the first spawn)
  // and an aggressive intent age so the test doesn't wait out the 10 s
  // production default.
  bool RestartWithIntentGc(int age_ms) {
    std::string peers = "127.0.0.1:" + std::to_string(dms_[0].port) +
                        ",127.0.0.1:" + std::to_string(dms_[1].port);
    for (auto& d : dms_) {
      Kill9(&d);
      d.args.insert(d.args.end(),
                    {"--gc", "--peers", peers, "--gc-intent-age-ms",
                     std::to_string(age_ms)});
      if (!Spawn(&d)) return false;
    }
    return true;
  }

  std::string ConnectSpec() const {
    std::string spec;
    for (const auto& d : dms_) {
      spec += (spec.empty() ? "dms=" : ",dms=");
      spec += "127.0.0.1:" + std::to_string(d.port);
    }
    spec += ",fms=127.0.0.1:" + std::to_string(fms_.port);
    spec += ",osd=127.0.0.1:" + std::to_string(osd_.port);
    return spec;
  }

  // A resilient client with a short deadline, as in chaos_test.
  Result<core::MountHandle> Connect() {
    auto options = core::ClientOptions::FromSpec(ConnectSpec());
    if (!options.ok()) return options.status();
    options->channel.call_deadline_ns = 500 * common::kMilli;
    return core::Connect(*options);
  }

  std::string FsckBinary() const {
    return std::string(LOCO_TOOL_DIR) + "/loco_fsck";
  }

  int RunFsck(bool repair) {
    const std::string binary = FsckBinary();
    const std::string connect = ConnectSpec();
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      const char* mode = repair ? "--repair" : "--dry-run";
      ::execl(binary.c_str(), binary.c_str(), "--connect", connect.c_str(),
              mode, static_cast<char*>(nullptr));
      _exit(127);
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) != pid) return -1;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  Daemon& dms(std::size_t shard) { return dms_[shard]; }

 private:
  std::string store_root_;
  std::vector<Daemon> dms_;
  Daemon fms_;
  Daemon osd_;
};

// Deterministically pick top-level directories on opposite shards, matching
// the placement every client and daemon computes from the shard count.
struct CrossPair {
  std::string from_top, to_top;  // top-level parents, different shards
  std::string from, to;          // the directory being moved
  std::size_t src_shard = 0, dst_shard = 0;
};

CrossPair PickCrossPair() {
  const core::ShardMap map(2);
  CrossPair p;
  for (int i = 0;; ++i) {
    std::string name = "/src" + std::to_string(i);
    if (p.from_top.empty()) {
      p.from_top = name;
      p.src_shard = map.ShardOf(name);
      continue;
    }
    if (map.ShardOf(name) != p.src_shard) {
      p.to_top = name;
      p.dst_shard = map.ShardOf(name);
      break;
    }
  }
  p.from = p.from_top + "/sub";
  p.to = p.to_top + "/moved";
  return p;
}

// Count live (kind 0/1) intent records on one shard; tombstones (kind 2)
// are permanent fences and don't count.  -1 when the scan RPC fails.
int LiveIntents(net::Channel& channel, net::NodeId node) {
  auto resp = BlockingCall(channel, node, core::proto::kDmsScanIntents, {});
  if (!resp.ok()) return -1;
  std::vector<std::string> records;
  if (!fs::Unpack(resp.payload, records)) return -1;
  int live = 0;
  for (const std::string& r : records) {
    std::uint8_t kind = 0;
    std::uint64_t txid = 0;
    std::string from, to;
    if (!fs::Unpack(r, kind, txid, from, to)) return -1;
    if (kind <= 1) ++live;
  }
  return live;
}

bool ReaddirHas(fs::FileSystemClient& client, const std::string& dir,
                const std::string& name) {
  auto entries = net::RunInline(client.Readdir(dir));
  if (!entries.ok()) return false;
  for (const auto& e : *entries) {
    if (e.name == name) return true;
  }
  return false;
}

// Shared scaffolding: start the cluster, mount it, build the namespace
//   from_top/sub/leaf   (source subtree, shard A)
//   to_top              (destination parent, shard B)
struct Scenario {
  ShardCluster cluster;
  CrossPair pair;
  Result<core::MountHandle> mount = ErrStatus(ErrCode::kUnavailable);
  std::unique_ptr<fs::FileSystemClient> client;
  net::NodeId src_node = 0, dst_node = 0;

  explicit Scenario(const std::string& tag) : cluster(tag) {}

  // False => skip (binaries not built); asserts on real failures.
  bool Up() {
    if (!cluster.BinariesPresent()) return false;
    EXPECT_TRUE(cluster.StartAll());
    mount = cluster.Connect();
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    client = mount->MakeClient(WallClockNs);
    client->SetIdentity(kWho);
    pair = PickCrossPair();
    src_node = mount->config.dms[pair.src_shard];
    dst_node = mount->config.dms[pair.dst_shard];
    EXPECT_TRUE(net::RunInline(client->Mkdir(pair.from_top, 0755)).ok());
    EXPECT_TRUE(net::RunInline(client->Mkdir(pair.from, 0755)).ok());
    EXPECT_TRUE(net::RunInline(client->Mkdir(pair.from + "/leaf", 0755)).ok());
    EXPECT_TRUE(net::RunInline(client->Mkdir(pair.to_top, 0755)).ok());
    return !::testing::Test::HasFailure();
  }

  net::RpcResponse Prepare(std::uint64_t txid) {
    return BlockingCall(*mount->channel, src_node,
                        core::proto::kDmsRenamePrepare,
                        fs::Pack(pair.from, pair.to, txid, kWho));
  }
  net::RpcResponse Commit(std::uint64_t txid,
                          const std::vector<std::string>& entries) {
    return BlockingCall(*mount->channel, dst_node,
                        core::proto::kDmsRenameCommit,
                        fs::Pack(txid, pair.to, kWho, entries));
  }

  bool DirExists(const std::string& path) {
    return net::RunInline(client->StatDir(path)).ok();
  }

  // The matrix invariant after recovery: the subtree lives under exactly one
  // name (with its child intact there), the parents' dirent lists agree, no
  // live intents remain, and a read-only fsck pass is clean.
  void ExpectResolved(bool at_to) {
    const std::string& winner = at_to ? pair.to : pair.from;
    const std::string& loser = at_to ? pair.from : pair.to;
    EXPECT_TRUE(Eventually([&] { return DirExists(winner); })) << winner;
    EXPECT_TRUE(DirExists(winner + "/leaf")) << winner;
    EXPECT_FALSE(DirExists(loser)) << loser;
    EXPECT_FALSE(DirExists(loser + "/leaf")) << loser;
    EXPECT_TRUE(ReaddirHas(*client, at_to ? pair.to_top : pair.from_top,
                           at_to ? "moved" : "sub"));
    EXPECT_FALSE(ReaddirHas(*client, at_to ? pair.from_top : pair.to_top,
                            at_to ? "sub" : "moved"));
    EXPECT_EQ(LiveIntents(*mount->channel, src_node), 0);
    EXPECT_EQ(LiveIntents(*mount->channel, dst_node), 0);
    EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0);
    // The surviving copy is live, not locked: mutations inside it work.
    EXPECT_TRUE(
        net::RunInline(client->Mkdir(winner + "/after", 0755)).ok());
  }
};

TEST(ShardRenameTest, CrossShardRenameEndToEnd) {
  Scenario s("e2e");
  if (!s.cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(s.Up());

  // The client API drives the whole 2PC: prepare on the source shard,
  // commit on the destination shard, finish back on the source.
  ASSERT_TRUE(net::RunInline(s.client->Rename(s.pair.from, s.pair.to)).ok());
  s.ExpectResolved(/*at_to=*/true);

  // The moved directory serves file traffic from its new shard.
  const std::string file = s.pair.to + "/f0";
  ASSERT_TRUE(net::RunInline(s.client->Create(file, 0644)).ok());
  ASSERT_TRUE(net::RunInline(s.client->Write(file, 0, "shard-bytes")).ok());
  auto data = net::RunInline(s.client->Read(file, 0, 64));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "shard-bytes");
}

TEST(ShardRenameTest, SrcKilledAfterPrepareRollsBack) {
  Scenario s("srckill");
  if (!s.cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(s.Up());

  ASSERT_TRUE(s.Prepare(41).ok());
  Kill9(&s.cluster.dms(s.pair.src_shard));
  ASSERT_TRUE(Spawn(&s.cluster.dms(s.pair.src_shard)));
  s.mount->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] { return s.DirExists(s.pair.from_top); }));

  // The restarted shard reloaded the persisted intent; fsck probes the
  // destination, finds no installed subtree, and rolls the rename back.
  ASSERT_EQ(s.cluster.RunFsck(/*repair=*/true), 0);
  s.ExpectResolved(/*at_to=*/false);
}

TEST(ShardRenameTest, DstKilledAfterCommitRollsForward) {
  Scenario s("dstkill");
  if (!s.cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(s.Up());

  auto prep = s.Prepare(42);
  ASSERT_TRUE(prep.ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(fs::Unpack(prep.payload, entries));
  ASSERT_TRUE(s.Commit(42, entries).ok());

  // The destination crashes with the subtree installed but the source not
  // yet finished: past the commit point, recovery must roll forward.
  Kill9(&s.cluster.dms(s.pair.dst_shard));
  ASSERT_TRUE(Spawn(&s.cluster.dms(s.pair.dst_shard)));
  s.mount->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] { return s.DirExists(s.pair.to_top); }));

  ASSERT_EQ(s.cluster.RunFsck(/*repair=*/true), 0);
  s.ExpectResolved(/*at_to=*/true);
}

TEST(ShardRenameTest, ClientAbandonsMidFlightRollsBack) {
  Scenario s("abandon");
  if (!s.cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(s.Up());

  // The client prepares and then walks away (crash, network partition): no
  // commit, no abort, both daemons healthy.
  ASSERT_TRUE(s.Prepare(43).ok());
  EXPECT_EQ(LiveIntents(*s.mount->channel, s.src_node), 1);

  ASSERT_EQ(s.cluster.RunFsck(/*repair=*/true), 0);
  s.ExpectResolved(/*at_to=*/false);
}

TEST(ShardRenameTest, IntentGcResolvesAbandonedTransaction) {
  Scenario s("gc");
  if (!s.cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(s.cluster.StartAll());
  // Re-arm both shards with the intent-resolution GC now that the shard
  // endpoints exist, then mount.
  ASSERT_TRUE(s.cluster.RestartWithIntentGc(/*age_ms=*/200));
  s.mount = s.cluster.Connect();
  ASSERT_TRUE(s.mount.ok()) << s.mount.status().ToString();
  s.client = s.mount->MakeClient(WallClockNs);
  s.client->SetIdentity(kWho);
  s.pair = PickCrossPair();
  s.src_node = s.mount->config.dms[s.pair.src_shard];
  s.dst_node = s.mount->config.dms[s.pair.dst_shard];
  ASSERT_TRUE(net::RunInline(s.client->Mkdir(s.pair.from_top, 0755)).ok());
  ASSERT_TRUE(net::RunInline(s.client->Mkdir(s.pair.from, 0755)).ok());
  ASSERT_TRUE(
      net::RunInline(s.client->Mkdir(s.pair.from + "/leaf", 0755)).ok());
  ASSERT_TRUE(net::RunInline(s.client->Mkdir(s.pair.to_top, 0755)).ok());

  // Abandon a prepared transaction; no fsck this time — the shards' own
  // background resolver must age it out and roll it back on its own.
  ASSERT_TRUE(s.Prepare(44).ok());
  ASSERT_TRUE(Eventually([&] {
    return LiveIntents(*s.mount->channel, s.src_node) == 0;
  })) << "intent GC did not resolve the abandoned transaction";
  s.ExpectResolved(/*at_to=*/false);
}

}  // namespace
}  // namespace loco

#else  // !(defined(LOCO_DAEMON_DIR) && defined(LOCO_TOOL_DIR))

TEST(ShardRenameTest, SkippedWithoutDaemonBinaries) { GTEST_SKIP(); }

#endif
