// GC soak test (docs/HOUSEKEEPING.md): create/delete churn against real
// daemons running their housekeeping plane (--gc), with a SIGKILLed client
// *and* a SIGKILLed FMS mid-storm.  The cluster never stops serving:
// background GC reclaims the damage the kills left behind (within its
// token-bucket rate budget), and `loco_fsck --live` verifies I1–I9 hold on
// the serving cluster.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/gc.h"
#include "core/proto.h"
#include "daemon_harness.h"
#include "fs/client.h"
#include "fs/wire.h"
#include "net/task.h"
#include "net/tcp.h"

#if defined(LOCO_DAEMON_DIR) && defined(LOCO_TOOL_DIR)

namespace loco {
namespace {

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

// A full cluster (1 DMS, 2 FMS, 1 OSD) with the housekeeping plane armed on
// every daemon.  GC endpoints chain through the learned ports, so daemons
// start in dependency order: DMS → FMS (probe dir liveness on the DMS) →
// OSD (probe inode liveness on both FMS).
class GcCluster {
 public:
  explicit GcCluster(const std::string& tag) {
    store_root_ = ::testing::TempDir() + "loco_gcsoak_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(::getpid()));
    const std::string cleanup = "rm -rf '" + store_root_ + "'";
    (void)std::system(cleanup.c_str());
    ::mkdir(store_root_.c_str(), 0755);

    const std::string daemon_dir = LOCO_DAEMON_DIR;
    dms_.binary = daemon_dir + "/locofs_dmsd";
    fms_.resize(2);
    for (int i = 0; i < 2; ++i) {
      fms_[static_cast<std::size_t>(i)].binary = daemon_dir + "/locofs_fmsd";
    }
    osd_.binary = daemon_dir + "/locofs_osd";
  }

  ~GcCluster() {
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
    // A generous rate budget keeps the soak fast while still exercising the
    // token bucket (each cycle is capped at --gc-batch ops).
    const std::vector<std::string> gc = {"--gc", "--gc-ops", "20000",
                                         "--gc-batch", "64"};
    dms_.args = {"--store-dir", store_root_ + "/dms", "--workers", "2"};
    dms_.args.insert(dms_.args.end(), gc.begin(), gc.end());
    if (!Spawn(&dms_)) return false;
    const std::string dms_ep = "127.0.0.1:" + std::to_string(dms_.port);
    for (int i = 0; i < 2; ++i) {
      Daemon& f = fms_[static_cast<std::size_t>(i)];
      f.args = {"--sid",       std::to_string(i + 1),
                "--store-dir", store_root_ + "/fms" + std::to_string(i + 1),
                "--workers",   "2"};
      f.args.insert(f.args.end(), gc.begin(), gc.end());
      f.args.push_back("--gc-dms");
      f.args.push_back(dms_ep);
      if (!Spawn(&f)) return false;
    }
    osd_.args = {"--store-dir", store_root_ + "/osd", "--workers", "2"};
    osd_.args.insert(osd_.args.end(), gc.begin(), gc.end());
    osd_.args.push_back("--gc-fms");
    osd_.args.push_back("127.0.0.1:" + std::to_string(fms_[0].port) +
                        ",127.0.0.1:" + std::to_string(fms_[1].port));
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

  Result<core::MountHandle> Connect() {
    auto options = core::ClientOptions::FromSpec(ConnectSpec());
    if (!options.ok()) return options.status();
    options->channel.call_deadline_ns = 500 * common::kMilli;
    return core::Connect(*options);
  }

  std::string FsckBinary() const {
    return std::string(LOCO_TOOL_DIR) + "/loco_fsck";
  }

  // Runs `loco_fsck --live` against the serving cluster; returns its exit
  // code (-1 on spawn failure).  No daemon is stopped or restarted first —
  // that is the point of live mode.
  int RunLiveFsck(bool repair) {
    const std::string binary = FsckBinary();
    const std::string connect = ConnectSpec();
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      const char* mode = repair ? "--repair" : "--dry-run";
      ::execl(binary.c_str(), binary.c_str(), "--connect", connect.c_str(),
              "--live", mode, static_cast<char*>(nullptr));
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

// An admin channel with every daemon registered under a stable node id.
struct AdminPlane {
  net::TcpChannel channel;
  static constexpr net::NodeId kDms = 0;
  static constexpr net::NodeId kFms1 = 1;
  static constexpr net::NodeId kFms2 = 2;
  static constexpr net::NodeId kOsd = 3;

  static net::TcpChannelOptions AdminOptions() {
    net::TcpChannelOptions options;
    options.call_deadline_ns = 2 * common::kSecond;
    return options;
  }

  explicit AdminPlane(GcCluster& cluster) : channel(AdminOptions()) {
    channel.Register(kDms, "127.0.0.1", cluster.dms().port);
    channel.Register(kFms1, "127.0.0.1", cluster.fms(0).port);
    channel.Register(kFms2, "127.0.0.1", cluster.fms(1).port);
    channel.Register(kOsd, "127.0.0.1", cluster.osd().port);
  }

  // GC status of one daemon; false when the RPC fails or GC is not running.
  bool GcStatus(net::NodeId node, core::GcManager::Status* out) {
    const net::RpcResponse resp = BlockingCall(
        channel, node, static_cast<std::uint16_t>(core::proto::kCtlGcStatus),
        {});
    if (!resp.ok()) return false;
    auto status = core::GcManager::ParseStatusPayload(resp.payload);
    if (!status.ok()) return false;
    *out = *status;
    return out->running;
  }
};

// Fork+exec a loco_shell churn client wired to a stdin pipe so the test can
// SIGKILL it while its mount is alive.
struct ShellClient {
  pid_t pid = -1;
  int stdin_fd = -1;

  bool Start(const std::string& connect_spec) {
    const std::string binary = std::string(LOCO_SHELL_DIR) + "/loco_shell";
    if (::access(binary.c_str(), X_OK) != 0) return false;
    int in_pipe[2];
    if (::pipe(in_pipe) != 0) return false;
    pid = ::fork();
    if (pid < 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return false;
    }
    if (pid == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      // Quiet: the shell's prompt chatter is irrelevant to the test.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execl(binary.c_str(), binary.c_str(), "--connect",
              connect_spec.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(in_pipe[0]);
    stdin_fd = in_pipe[1];
    return true;
  }

  void Send(const std::string& line) {
    const std::string buf = line + "\n";
    (void)!::write(stdin_fd, buf.data(), buf.size());
  }

  void SigKill() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
    if (stdin_fd >= 0) {
      ::close(stdin_fd);
      stdin_fd = -1;
    }
  }

  ~ShellClient() { SigKill(); }
};

TEST(GcSoakTest, ChurnWithKilledClientAndFmsStaysCleanLive) {
  GcCluster cluster("churn");
  if (!cluster.BinariesPresent()) {
    GTEST_SKIP() << "daemon or loco_fsck binaries not built";
  }
  ASSERT_TRUE(cluster.StartAll());

  auto deployment = cluster.Connect();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  auto client = deployment->MakeClient(WallClockNs);
  client->SetIdentity(fs::Identity{1000, 1000});

  // A second, killable client: a real loco_shell process creating files on
  // both FMS through its own mount.
  ShellClient victim;
  ASSERT_TRUE(victim.Start(cluster.ConnectSpec())) << "loco_shell not built";
  victim.Send("mkdir /victim");
  for (int i = 0; i < 8; ++i) {
    victim.Send("touch /victim/v" + std::to_string(i));
  }
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->StatFile("/victim/v7")).ok();
  })) << "shell client never processed its churn script";

  AdminPlane admin(cluster);

  // Inject a leaked object (I9): a write keyed by a uuid no FMS inode owns.
  // Background GC on the OSD must reclaim it without any fsck involvement —
  // destructive reclaims need two consecutive dead sightings, so this also
  // proves the scan cursor makes full passes while the cluster serves.
  {
    const fs::Uuid leaked(0x6c0bbccd);
    const net::RpcResponse resp = BlockingCall(
        admin.channel, AdminPlane::kOsd,
        static_cast<std::uint16_t>(core::proto::kObjWrite),
        fs::Pack(leaked, std::uint64_t{0}, std::string("leaked-bytes")));
    ASSERT_EQ(resp.code, ErrCode::kOk);
  }

  // Create/delete churn with a SIGKILLed FMS at the midpoint.  Failures are
  // tolerated while the daemon is down; committed paths are remembered.
  std::vector<std::string> committed_files;
  std::vector<std::string> committed_dirs;
  constexpr int kOps = 150;
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      Kill9(&cluster.fms(0));
      victim.SigKill();  // the client dies mid-churn too
    }
    switch (i % 5) {
      case 0: {
        const std::string dir = "/soak" + std::to_string(i);
        if (net::RunInline(client->Mkdir(dir, 0755)).ok()) {
          committed_dirs.push_back(dir);
        }
        break;
      }
      case 1:
      case 2: {
        if (committed_dirs.empty()) break;
        const std::string path =
            committed_dirs.back() + "/f" + std::to_string(i);
        if (net::RunInline(client->Create(path, 0644)).ok()) {
          committed_files.push_back(path);
        }
        break;
      }
      case 3: {
        if (committed_files.empty()) break;
        (void)net::RunInline(
            client->Write(committed_files.back(), 0, "soak-bytes"));
        break;
      }
      default: {
        // Delete churn: unlink every other committed file.
        if (committed_files.size() < 2 || i % 2 == 0) break;
        if (net::RunInline(client->Unlink(committed_files.front())).ok()) {
          committed_files.erase(committed_files.begin());
        }
        break;
      }
    }
  }
  ASSERT_FALSE(committed_dirs.empty());
  ASSERT_FALSE(committed_files.empty());

  // Restart the killed FMS on its old port; the cluster keeps serving
  // throughout (no quiesce, GC threads never stop on the survivors).
  ASSERT_TRUE(Spawn(&cluster.fms(0))) << "FMS restart failed";
  deployment->channel->DisconnectAll();
  ASSERT_TRUE(Eventually([&] {
    return net::RunInline(client->Stat("/")).ok();
  })) << "cluster did not come back";

  // Every daemon reports a live GC loop that has completed cycles, and the
  // OSD's reclaim counter shows the injected leak was collected.
  for (net::NodeId node : {AdminPlane::kDms, AdminPlane::kFms1,
                           AdminPlane::kFms2, AdminPlane::kOsd}) {
    core::GcManager::Status status;
    EXPECT_TRUE(Eventually([&] {
      return admin.GcStatus(node, &status) && status.cycles > 0;
    })) << "node " << node << " has no running GC";
  }
  {
    core::GcManager::Status status;
    EXPECT_TRUE(Eventually([&] {
      return admin.GcStatus(AdminPlane::kOsd, &status) &&
             status.reclaimed > 0;
    })) << "OSD GC never reclaimed the injected leaked object";
  }

  // Live fsck against the serving cluster: repair whatever damage the kills
  // left that GC has not yet reached, then a live dry run must be clean.
  ASSERT_EQ(cluster.RunLiveFsck(/*repair=*/true), 0);
  EXPECT_EQ(cluster.RunLiveFsck(/*repair=*/false), 0);

  // Every path the surviving client saw commit is still visible.
  for (const std::string& dir : committed_dirs) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->Stat(dir)).ok();
    })) << dir;
  }
  for (const std::string& path : committed_files) {
    EXPECT_TRUE(Eventually([&] {
      return net::RunInline(client->StatFile(path)).ok();
    })) << path;
  }
}

}  // namespace
}  // namespace loco

#else  // !defined(LOCO_DAEMON_DIR) || !defined(LOCO_TOOL_DIR)

TEST(GcSoakTest, DISABLED_RequiresDaemonAndToolDirs) {}

#endif
