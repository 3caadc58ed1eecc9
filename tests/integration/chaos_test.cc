// Chaos integration test: kill -9 real daemons mid-workload, restart them
// from their --store-dir, repair with the real loco_fsck binary, and verify
// the namespace (ISSUE 4 acceptance; failure model in docs/FAULTS.md).
//
// Each test drives a storm of mkdir/create/write/rename/unlink operations
// through the resilient remote client, SIGKILLs one daemon mid-storm (or
// lets a --fault-spec crash_after= daemon kill itself), keeps issuing
// operations against the degraded cluster, restarts the dead process on the
// same port with the same store directory, runs `loco_fsck --repair`, and
// then asserts:
//   * loco_fsck exits 0 (repaired to clean) and a second dry run exits 0;
//   * every operation the client saw commit is still visible;
//   * the surviving namespace is fully readable.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/client.h"
#include "core/connect.h"
#include "daemon_harness.h"
#include "fs/client.h"
#include "net/task.h"
#include "net/tcp.h"
#include "net/wire.h"

#if defined(LOCO_DAEMON_DIR) && defined(LOCO_TOOL_DIR)

namespace loco {
namespace {

using testutil::AwaitSelfExit;
using testutil::Daemon;
using testutil::Eventually;
using testutil::Kill9;
using testutil::Spawn;
using testutil::WallClockNs;

// TcpChannel completes callbacks inline, so a plain out-param works.
net::RpcResponse BlockingCall(net::Channel& channel, net::NodeId node,
                              std::uint16_t opcode, std::string payload) {
  net::RpcResponse out;
  channel.CallAsync(node, opcode, std::move(payload),
                    [&out](net::RpcResponse r) { out = std::move(r); });
  return out;
}

class ChaosCluster {
 public:
  // `fms2_fault_spec` optionally arms the fault plane on the second FMS.
  explicit ChaosCluster(const std::string& tag,
                        const std::string& fms2_fault_spec = "") {
    store_root_ = ::testing::TempDir() + "loco_chaos_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(::getpid()));
    std::string cleanup = "rm -rf '" + store_root_ + "'";
    (void)std::system(cleanup.c_str());
    ::mkdir(store_root_.c_str(), 0755);

    const std::string daemon_dir = LOCO_DAEMON_DIR;
    dms_.binary = daemon_dir + "/locofs_dmsd";
    dms_.args = {"--store-dir", store_root_ + "/dms", "--workers", "2"};
    for (int i = 0; i < 2; ++i) {
      Daemon fms;
      fms.binary = daemon_dir + "/locofs_fmsd";
      fms.args = {"--sid",        std::to_string(i + 1),
                  "--store-dir",  store_root_ + "/fms" + std::to_string(i + 1),
                  "--workers",    "2"};
      if (i == 1 && !fms2_fault_spec.empty()) {
        fms.args.push_back("--fault-spec");
        fms.args.push_back(fms2_fault_spec);
      }
      fms_.push_back(std::move(fms));
    }
    osd_.binary = daemon_dir + "/locofs_osd";
    osd_.args = {"--store-dir", store_root_ + "/osd", "--workers", "2"};
  }

  ~ChaosCluster() {
    Kill9(&dms_);
    for (auto& f : fms_) Kill9(&f);
    Kill9(&osd_);
  }

  bool BinariesPresent() const {
    return ::access(dms_.binary.c_str(), X_OK) == 0 &&
           ::access(fms_[0].binary.c_str(), X_OK) == 0 &&
           ::access(osd_.binary.c_str(), X_OK) == 0 &&
           ::access(FsckBinary().c_str(), X_OK) == 0;
  }

  bool StartAll() {
    if (!Spawn(&dms_)) return false;
    for (auto& f : fms_) {
      if (!Spawn(&f)) return false;
    }
    return Spawn(&osd_);
  }

  std::string ConnectSpec() const {
    std::string spec = "dms=127.0.0.1:" + std::to_string(dms_.port);
    for (const auto& f : fms_) {
      spec += ",fms=127.0.0.1:" + std::to_string(f.port);
    }
    spec += ",osd=127.0.0.1:" + std::to_string(osd_.port);
    return spec;
  }

  // A resilient client with a short deadline (the storm keeps running while
  // a daemon is down; 5 s default deadlines would stall it).
  Result<core::MountHandle> Connect() {
    auto options = core::ClientOptions::FromSpec(ConnectSpec());
    if (!options.ok()) return options.status();
    options->channel.call_deadline_ns = 500 * common::kMilli;
    return core::Connect(*options);
  }

  std::string FsckBinary() const {
    return std::string(LOCO_TOOL_DIR) + "/loco_fsck";
  }

  // Runs loco_fsck against the cluster; returns its exit code (-1 on spawn
  // failure).
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

  Daemon& dms() { return dms_; }
  Daemon& fms(int i) { return fms_[static_cast<std::size_t>(i)]; }
  Daemon& osd() { return osd_; }

 private:
  std::string store_root_;
  Daemon dms_;
  std::vector<Daemon> fms_;
  Daemon osd_;
};

struct StormResult {
  std::vector<std::string> committed_dirs;
  std::vector<std::string> committed_files;
  // Renames that reported failure: {from, to} pairs.  The f-rename is a
  // composite (insert at the destination, then remove the source), so a
  // failure may have left the file under either name — but never both (a
  // duplicated mutation) and never neither (a lost file).
  std::vector<std::pair<std::string, std::string>> unresolved_renames;
  int failures = 0;
};

// Issue `ops` operations: a rotating mix of mkdir, create, write, rename and
// unlink.  Paths whose mutation reported success are recorded; failures are
// tolerated (a daemon may be down).  `kill_at` (when >= 0) fires `on_kill`
// after that many operations.
StormResult RunStorm(fs::FileSystemClient& client, int ops, int kill_at,
                     const std::function<void()>& on_kill) {
  StormResult result;
  int dir_seq = 0;
  for (int i = 0; i < ops; ++i) {
    if (i == kill_at) on_kill();
    switch (i % 5) {
      case 0: {
        const std::string dir = "/storm" + std::to_string(dir_seq++);
        if (net::RunInline(client.Mkdir(dir, 0755)).ok()) {
          result.committed_dirs.push_back(dir);
        } else {
          ++result.failures;
        }
        break;
      }
      case 1:
      case 2: {
        if (result.committed_dirs.empty()) break;
        const std::string path =
            result.committed_dirs.back() + "/f" + std::to_string(i);
        if (net::RunInline(client.Create(path, 0644)).ok()) {
          result.committed_files.push_back(path);
        } else {
          ++result.failures;
        }
        break;
      }
      case 3: {
        if (result.committed_files.empty()) break;
        const std::string& path = result.committed_files.back();
        if (!net::RunInline(client.Write(path, 0, "chaos-bytes")).ok()) {
          ++result.failures;
        }
        break;
      }
      default: {
        // Rename a committed file within its directory, tracking the new
        // name on success (file renames exercise the f-rename raw-move).
        if (result.committed_files.empty()) break;
        std::string& path = result.committed_files.back();
        const std::string to = path + "r";
        if (net::RunInline(client.Rename(path, to)).ok()) {
          path = to;
        } else {
          // A failed composite rename may still have moved the file; verify
          // it later as exactly-one-of {from, to} instead of by exact name.
          result.unresolved_renames.emplace_back(path, to);
          result.committed_files.pop_back();
          ++result.failures;
        }
        break;
      }
    }
  }
  return result;
}

// Shared body: storm, kill one daemon mid-storm, restart it, fsck --repair,
// verify every committed path, fsck dry run must be clean.
void RunKillRestartScenario(const std::string& tag,
                            const std::function<Daemon&(ChaosCluster&)>& pick) {
  ChaosCluster cluster(tag);
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});

  Daemon& victim = pick(cluster);
  const StormResult storm =
      RunStorm(*client, /*ops=*/120, /*kill_at=*/60, [&] { Kill9(&victim); });
  ASSERT_FALSE(storm.committed_dirs.empty());
  ASSERT_FALSE(storm.committed_files.empty());

  // Restart the victim on its old port with its old store directory.
  ASSERT_TRUE(Spawn(&victim)) << tag << ": restart failed";

  // The cluster must be quiescent for fsck; drop stale client connections.
  deployment->channel->DisconnectAll();

  // Wait until the restarted daemon answers, then repair.
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  })) << tag << ": cluster did not come back";
  ASSERT_EQ(cluster.RunFsck(/*repair=*/true), 0) << tag;

  // Every mutation the client saw commit is still there.
  for (const std::string& dir : storm.committed_dirs) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Stat(dir)).ok();
    })) << dir;
  }
  for (const std::string& path : storm.committed_files) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->StatFile(path)).ok();
    })) << path;
  }
  // A failed rename resolved to exactly one of its two names: never both
  // (duplicated mutation), never neither (lost file).
  for (const auto& [from, to] : storm.unresolved_renames) {
    EXPECT_TRUE(Eventually([&] {
      const bool at_from = net::RunInline(client->StatFile(from)).ok();
      const bool at_to = net::RunInline(client->StatFile(to)).ok();
      return at_from != at_to;
    })) << from << " -> " << to;
  }

  // And the second, read-only pass finds nothing left to repair.
  EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0) << tag;
}

TEST(ChaosTest, DmsKillRestartFsckClean) {
  RunKillRestartScenario("dms",
                         [](ChaosCluster& c) -> Daemon& { return c.dms(); });
}

TEST(ChaosTest, FmsKillRestartFsckClean) {
  RunKillRestartScenario("fms",
                         [](ChaosCluster& c) -> Daemon& { return c.fms(0); });
}

TEST(ChaosTest, OsdKillRestartFsckClean) {
  RunKillRestartScenario("osd",
                         [](ChaosCluster& c) -> Daemon& { return c.osd(); });
}

TEST(ChaosTest, BatchCreateStormKillRestartFsckClean) {
  // Same kill/restart/fsck discipline as the per-op storms, but every file
  // mutation rides a kFmsBatchCreate frame.  A frame that dies with its FMS
  // reports per-name failures (or transport errors) without poisoning the
  // rest of the batch, acknowledged sub-ops must survive the crash, and the
  // dedup window replays retried frames instead of double-applying.
  ChaosCluster cluster("batch");
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});
  // core::MountHandle::MakeClient always builds a LocoClient.
  auto* loco = static_cast<core::LocoClient*>(client.get());

  std::vector<std::string> committed;
  constexpr int kRounds = 10;
  constexpr int kKillRound = 4;
  constexpr int kNamesPerRound = 20;
  for (int round = 0; round < kRounds; ++round) {
    if (round == kKillRound) Kill9(&cluster.fms(0));
    const std::string dir = "/batch" + std::to_string(round);
    if (!net::RunInline(client->Mkdir(dir, 0755)).ok()) continue;
    std::vector<std::string> names;
    for (int i = 0; i < kNamesPerRound; ++i) {
      names.push_back("f" + std::to_string(i));
    }
    auto codes = net::RunInline(loco->CreateMany(dir, names, 0644));
    if (!codes.ok()) continue;  // e.g. parent lookup raced the kill
    ASSERT_EQ(codes->size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      if ((*codes)[i] == ErrCode::kOk) {
        committed.push_back(dir + "/" + names[i]);
      }
    }
  }
  // Placement spreads each round across both FMS, so the surviving server
  // keeps acknowledging its share while FMS 1 is down.
  ASSERT_FALSE(committed.empty());

  ASSERT_TRUE(Spawn(&cluster.fms(0))) << "restart failed";
  deployment->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  })) << "cluster did not come back";
  ASSERT_EQ(cluster.RunFsck(/*repair=*/true), 0);

  // Every acknowledged batched create is still visible — via the per-op
  // path and via a batched stat of the same names.
  for (const std::string& path : committed) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->StatFile(path)).ok();
    })) << path;
  }
  {
    const std::string dir = "/batch0";
    std::vector<std::string> names;
    for (const std::string& path : committed) {
      if (path.rfind(dir + "/", 0) == 0) {
        names.push_back(path.substr(dir.size() + 1));
      }
    }
    if (!names.empty()) {
      EXPECT_TRUE(Eventually([&] {
        auto entries = net::RunInline(loco->StatMany(dir, names));
        if (!entries.ok() || entries->size() != names.size()) return false;
        for (const core::LocoClient::StatEntry& e : *entries) {
          if (e.code != ErrCode::kOk) return false;
        }
        return true;
      })) << "StatMany after restart";
    }
  }

  EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0);
}

TEST(ChaosTest, BatchMkdirAndPutStormKillRestartFsckClean) {
  // The PR-8 batch opcodes under the kill/restart/fsck discipline:
  // kDmsBatchMkdir trees (MkdirMany) and the two-phase small-file ingest
  // (PutMany: kFmsBatchSetSize then kObjBatchPut), with the OSD SIGKILLed
  // mid-storm.  All three opcodes sit in the idempotent-replay set, so the
  // resilient channel's retries must apply exactly once; acknowledged
  // sub-ops must survive the crash; fsck must end clean.
  ChaosCluster cluster("batchmk");
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});
  auto* loco = static_cast<core::LocoClient*>(client.get());

  std::vector<std::string> committed_dirs;
  // path -> expected contents, for every acknowledged put.
  std::vector<std::pair<std::string, std::string>> committed_puts;
  constexpr int kRounds = 10;
  constexpr int kKillRound = 4;
  for (int round = 0; round < kRounds; ++round) {
    if (round == kKillRound) Kill9(&cluster.osd());
    // One kDmsBatchMkdir frame materializes a small tree, later entries
    // depending on earlier siblings.
    const std::string root = "/bm" + std::to_string(round);
    const std::vector<std::string> tree = {root, root + "/a", root + "/a/b"};
    auto mk = net::RunInline(loco->MkdirMany(tree, 0755));
    if (!mk.ok()) continue;
    ASSERT_EQ(mk->size(), tree.size());
    for (std::size_t i = 0; i < tree.size(); ++i) {
      if ((*mk)[i] == ErrCode::kOk) committed_dirs.push_back(tree[i]);
    }
    if ((*mk)[0] != ErrCode::kOk) continue;

    // Create the files per-op, then bulk-load their contents via PutMany.
    std::vector<core::LocoClient::PutEntry> entries;
    for (int i = 0; i < 8; ++i) {
      const std::string name = "p" + std::to_string(i);
      if (!net::RunInline(client->Create(root + "/" + name, 0644)).ok()) {
        continue;
      }
      entries.push_back(core::LocoClient::PutEntry{
          name, "round" + std::to_string(round) + "-" + name});
    }
    if (entries.empty()) continue;
    auto put = net::RunInline(loco->PutMany(root, entries));
    if (!put.ok()) continue;  // OSD down: whole data phase may fail
    ASSERT_EQ(put->size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if ((*put)[i] == ErrCode::kOk) {
        committed_puts.emplace_back(root + "/" + entries[i].name,
                                    entries[i].data);
      }
    }
  }
  ASSERT_FALSE(committed_dirs.empty());

  ASSERT_TRUE(Spawn(&cluster.osd())) << "restart failed";
  deployment->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  })) << "cluster did not come back";
  ASSERT_EQ(cluster.RunFsck(/*repair=*/true), 0);

  for (const std::string& dir : committed_dirs) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Stat(dir)).ok();
    })) << dir;
  }
  // Every acknowledged put reads back byte-exactly (size from the batched
  // SetSize, contents from the batched object write).
  for (const auto& [path, data] : committed_puts) {
    EXPECT_TRUE(Eventually([&] {
      auto got = net::RunInline(client->Read(path, 0, data.size() + 16));
      return got.ok() && *got == data;
    })) << path;
  }

  EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0);
}

TEST(ChaosTest, OverloadStormShedKillRestartFsckClean) {
  // Overload storm phase (docs/OVERLOAD.md): FMS 2 is armed with
  // queue_full=0.35, so roughly a third of its decoded frames take the
  // admission-queue-full path and are shed with kOverloaded + retry-after —
  // the daemon is continuously shedding under the storm.  The SIGKILL then
  // lands *mid-shed* (asserted via the kCtlLoadStatus shed counter just
  // before the kill fires).  After restart, fsck must find a clean
  // namespace, the client's breaker must admit traffic to the restarted
  // node again, and no mutation may have applied twice: kOverloaded is
  // replied before execution, so a shed-then-retried request applies
  // exactly once, and timed-out retries replay through the dedup window.
  // RunStorm's rename chain (f -> fr, tracking the new name) is the
  // duplicate detector — a double-applied rename leaves the tracked name
  // unreadable.
  ChaosCluster cluster("overload", "queue_full=0.35,seed=11");
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});

  // Admin probe straight at the shedding FMS: control-plane traffic is
  // exempt from admission control, so the probe answers even while the
  // daemon sheds serving work.
  net::TcpChannelOptions probe_options;
  probe_options.call_deadline_ns = 2 * common::kSecond;
  net::TcpChannel probe(probe_options);
  probe.Register(0, "127.0.0.1", cluster.fms(1).port);

  bool killed_mid_shed = false;
  const StormResult storm = RunStorm(*client, /*ops=*/200, /*kill_at=*/120, [&] {
    const net::RpcResponse r =
        BlockingCall(probe, 0, net::wire::kCtlLoadStatus, {});
    if (r.ok()) {
      net::LoadStatus status;
      if (DecodeLoadStatus(r.payload, &status).ok() && status.shed > 0) {
        killed_mid_shed = true;
      }
    }
    Kill9(&cluster.fms(1));
  });
  EXPECT_TRUE(killed_mid_shed) << "SIGKILL did not land while shedding";
  ASSERT_FALSE(storm.committed_dirs.empty());
  ASSERT_FALSE(storm.committed_files.empty());
  // The fault plane guarantees sheds happened; with only 2 attempts per
  // call some of them surfaced to the storm as failures.
  EXPECT_GT(storm.failures, 0);

  // Restart FMS 2 without the fault spec: the mid-shed kill already
  // happened, and recovery should measure the overload plane, not a daemon
  // still shedding a third of everything (fsck scans ride background
  // priority and would be shed too).
  {
    auto& args = cluster.fms(1).args;
    for (auto it = args.begin(); it != args.end();) {
      if (*it == "--fault-spec") {
        it = args.erase(it, it + 2);
      } else {
        ++it;
      }
    }
  }
  ASSERT_TRUE(Spawn(&cluster.fms(1))) << "restart failed";
  deployment->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  })) << "cluster did not come back";
  ASSERT_EQ(cluster.RunFsck(/*repair=*/true), 0);

  // Zero duplicated mutations: every path the client saw commit is visible
  // under exactly the name the client tracked through the rename chain, and
  // every failed rename resolved to exactly one of its two names.
  for (const std::string& dir : storm.committed_dirs) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Stat(dir)).ok();
    })) << dir;
  }
  for (const std::string& path : storm.committed_files) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->StatFile(path)).ok();
    })) << path;
  }
  for (const auto& [from, to] : storm.unresolved_renames) {
    EXPECT_TRUE(Eventually([&] {
      const bool at_from = net::RunInline(client->StatFile(from)).ok();
      const bool at_to = net::RunInline(client->StatFile(to)).ok();
      return at_from != at_to;
    })) << from << " -> " << to;
  }

  // Breaker recovery: the restarted, no-longer-shedding FMS must accept
  // fresh mutations (placement spreads these across both FMS, so a breaker
  // stuck open on node 2 would strand some of them).
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Mkdir("/postshed", 0755)).ok();
  }));
  for (int i = 0; i < 10; ++i) {
    const std::string path = "/postshed/f" + std::to_string(i);
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Create(path, 0644)).ok();
    })) << path;
  }

  EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0);
}

TEST(ChaosTest, FaultSpecCrashAfterSelfCrashAndRecovery) {
  // The second FMS is armed to _exit(137) after 40 decoded frames — a
  // deterministic kill -9 between KV writes, driven by --fault-spec.
  ChaosCluster cluster("crash", "crash_after=40,seed=7");
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});

  // Enough traffic to trip the crash counter on FMS 2 (placement spreads
  // files across both FMS).
  const StormResult storm = RunStorm(*client, /*ops=*/200, -1, [] {});
  ASSERT_FALSE(storm.committed_files.empty());

  const int exit_code = AwaitSelfExit(&cluster.fms(1), /*timeout_ms=*/5000);
  ASSERT_EQ(exit_code, 137) << "fms2 did not self-crash via --fault-spec";

  ASSERT_TRUE(Spawn(&cluster.fms(1))) << "restart failed";
  deployment->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  }));

  ASSERT_EQ(cluster.RunFsck(/*repair=*/true), 0);
  EXPECT_EQ(cluster.RunFsck(/*repair=*/false), 0);

  for (const std::string& dir : storm.committed_dirs) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Stat(dir)).ok();
    })) << dir;
  }
}

}  // namespace
}  // namespace loco

#else  // !defined(LOCO_DAEMON_DIR) || !defined(LOCO_TOOL_DIR)

TEST(ChaosTest, DISABLED_RequiresDaemonAndToolDirs) {}

#endif
