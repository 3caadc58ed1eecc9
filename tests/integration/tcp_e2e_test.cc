// End-to-end LocoFS over real TCP: a DMS, two FMS, and an object store each
// behind their own net::TcpServer on loopback sockets, driven by a LocoClient
// through net::TcpChannel — then one FMS is killed and the client's
// kUnavailable→DMS fallbacks must behave exactly as they do in-process.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "daemon_main.h"
#include "fs/wire.h"
#include "net/task.h"
#include "net/tcp.h"

namespace loco {
namespace {

std::string HostPort(const net::TcpServer& server) {
  return server.host() + ":" + std::to_string(server.port());
}

// The paper testbed in miniature, over loopback TCP.
class TcpClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dms_server_ = std::make_unique<net::TcpServer>(&dms_);
    ASSERT_TRUE(dms_server_->Start().ok());
    for (int i = 0; i < 2; ++i) {
      core::FileMetadataServer::Options options;
      options.sid = static_cast<std::uint32_t>(i + 1);
      fms_.push_back(std::make_unique<core::FileMetadataServer>(options));
      fms_servers_.push_back(
          std::make_unique<net::TcpServer>(fms_.back().get()));
      ASSERT_TRUE(fms_servers_.back()->Start().ok());
    }
    osd_server_ = std::make_unique<net::TcpServer>(&osd_);
    ASSERT_TRUE(osd_server_->Start().ok());

    core::ClientOptions options;
    options.dms = {HostPort(*dms_server_)};
    for (const auto& s : fms_servers_) options.fms.push_back(HostPort(*s));
    options.object_stores.push_back(HostPort(*osd_server_));

    // Keep operations against a killed FMS fast: refused connects already
    // fail fast, but cap the deadline so nothing can stall the suite.
    options.channel.call_deadline_ns = 2 * common::kSecond;
    auto mount = core::Connect(options);
    ASSERT_TRUE(mount.ok()) << mount.status().ToString();
    mount_ = std::move(*mount);
    client_ = mount_.MakeClient([this] { return ++clock_; });
    client_->SetIdentity(fs::Identity{1000, 1000});
  }

  core::DirectoryMetadataServer dms_;
  std::vector<std::unique_ptr<core::FileMetadataServer>> fms_;
  core::ObjectStoreServer osd_;
  std::unique_ptr<net::TcpServer> dms_server_;
  std::vector<std::unique_ptr<net::TcpServer>> fms_servers_;
  std::unique_ptr<net::TcpServer> osd_server_;
  core::MountHandle mount_;
  std::unique_ptr<fs::FileSystemClient> client_;
  std::uint64_t clock_ = 0;
};

TEST_F(TcpClusterTest, FullMetadataAndDataPathOverTcp) {
  auto& c = *client_;
  ASSERT_TRUE(net::RunInline(c.Mkdir("/dir", 0755)).ok());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/dir/sub", 0755)).ok());
  ASSERT_TRUE(net::RunInline(c.Create("/dir/file", 0644)).ok());

  ASSERT_TRUE(net::RunInline(c.Write("/dir/file", 0, "tcp payload")).ok());
  auto data = net::RunInline(c.Read("/dir/file", 0, 64));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, "tcp payload");

  auto attr = net::RunInline(c.Stat("/dir/file"));
  ASSERT_TRUE(attr.ok());
  EXPECT_FALSE(attr->is_dir);
  EXPECT_EQ(attr->size, 11u);

  auto entries = net::RunInline(c.Readdir("/dir"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);

  ASSERT_TRUE(net::RunInline(c.Rename("/dir/file", "/dir/renamed")).ok());
  EXPECT_EQ(net::RunInline(c.Stat("/dir/file")).code(), ErrCode::kNotFound);
  auto renamed = net::RunInline(c.Read("/dir/renamed", 0, 64));
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(*renamed, "tcp payload");

  ASSERT_TRUE(net::RunInline(c.Unlink("/dir/renamed")).ok());
  ASSERT_TRUE(net::RunInline(c.Rmdir("/dir/sub")).ok());
  ASSERT_TRUE(net::RunInline(c.Rmdir("/dir")).ok());

  // Per-opcode TCP RPC metrics were recorded on both sides of the wire.
  const std::string stats = common::MetricsRegistry::Default().ToText();
  EXPECT_NE(stats.find("rpc.tcp.DmsMkdir.calls"), std::string::npos);
  EXPECT_NE(stats.find("rpc.tcp.FmsCreate.calls"), std::string::npos);
  EXPECT_NE(stats.find("rpc.tcp_server.DmsMkdir.calls"), std::string::npos);
  EXPECT_NE(stats.find("rpc.tcp.ObjWrite.calls"), std::string::npos);
}

TEST_F(TcpClusterTest, KilledFmsSurfacesUnavailableAndDmsFallbackWorks) {
  auto& c = *client_;
  ASSERT_TRUE(net::RunInline(c.Mkdir("/d", 0755)).ok());

  // Kill FMS #2 (node id 2) mid-flight.
  fms_servers_[1]->Stop();

  // File creates that hash onto the dead server surface kUnavailable; the
  // rest succeed.  With 40 names both buckets are hit.
  int ok = 0, unavailable = 0;
  for (int i = 0; i < 40; ++i) {
    const Status st =
        net::RunInline(c.Create("/d/f" + std::to_string(i), 0644));
    if (st.ok()) {
      ++ok;
    } else if (st.code() == ErrCode::kUnavailable) {
      ++unavailable;
    } else {
      FAIL() << st.ToString();
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(unavailable, 0);

  // Directory operations route file-metadata probes to FMS first and fall
  // back to the DMS on kUnavailable — they must all succeed even when the
  // probe hashes onto the dead server.
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/d/sub" + std::to_string(i);
    ASSERT_TRUE(net::RunInline(c.Mkdir(dir, 0755)).ok());
    EXPECT_TRUE(net::RunInline(c.Chmod(dir, 0700)).ok()) << dir;
    auto attr = net::RunInline(c.Stat(dir));
    EXPECT_TRUE(attr.ok()) << dir;
  }

  // The DMS itself is healthy throughout.
  EXPECT_TRUE(net::RunInline(c.Mkdir("/d2", 0755)).ok());
}

TEST_F(TcpClusterTest, BatchedMetadataOpsOverTcp) {
  // MakeClient always builds a LocoClient; the batch surface is its own.
  auto& c = *static_cast<core::LocoClient*>(client_.get());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/batch", 0755)).ok());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/batch/sub", 0755)).ok());

  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("f" + std::to_string(i));

  // The batch carries two doomed entries alongside the good ones: a name
  // shadowed by the subdirectory and a duplicate of an earlier sub-op.
  // Partial failure must be per-entry, never whole-batch.
  std::vector<std::string> create_names = names;
  create_names.push_back("sub");
  create_names.push_back("f0");
  auto codes = net::RunInline(c.CreateMany("/batch", create_names, 0644));
  ASSERT_TRUE(codes.ok()) << codes.status().ToString();
  ASSERT_EQ(codes->size(), create_names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ((*codes)[i], ErrCode::kOk) << create_names[i];
  }
  EXPECT_EQ((*codes)[names.size()], ErrCode::kExists);      // shadowed
  EXPECT_EQ((*codes)[names.size() + 1], ErrCode::kExists);  // duplicate

  // Batched stat sees every created file; a missing name fails alone.
  std::vector<std::string> stat_names = names;
  stat_names.push_back("missing");
  auto stats = net::RunInline(c.StatMany("/batch", stat_names));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), stat_names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ((*stats)[i].code, ErrCode::kOk) << stat_names[i];
    EXPECT_FALSE((*stats)[i].attr.is_dir);
    EXPECT_EQ((*stats)[i].attr.mode, 0644u);
  }
  EXPECT_EQ((*stats)[names.size()].code, ErrCode::kNotFound);

  // ReaddirPlus: one DMS readdir + one frame per FMS returns every file
  // with its attributes, plus the subdirectory by name.
  auto plus = net::RunInline(c.ReaddirPlus("/batch"));
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  ASSERT_EQ(plus->size(), names.size() + 1);
  std::size_t dirs = 0, files = 0;
  for (const auto& e : *plus) {
    if (e.is_dir) {
      ++dirs;
      EXPECT_EQ(e.name, "sub");
    } else {
      ++files;
      EXPECT_EQ(e.code, ErrCode::kOk) << e.name;
      EXPECT_EQ(e.attr.mode, 0644u) << e.name;
    }
  }
  EXPECT_EQ(dirs, 1u);
  EXPECT_EQ(files, names.size());

  // The single-op read path agrees with what the batch wrote.
  auto attr = net::RunInline(c.Stat("/batch/f7"));
  ASSERT_TRUE(attr.ok());
  EXPECT_FALSE(attr->is_dir);

  // Batch traffic was accounted under its own opcode names and counters.
  const std::string text = common::MetricsRegistry::Default().ToText();
  EXPECT_NE(text.find("rpc.tcp_server.FmsBatchCreate.calls"), std::string::npos);
  EXPECT_NE(text.find("rpc.tcp_server.FmsBatchStat.calls"), std::string::npos);
  EXPECT_NE(text.find("rpc.tcp_server.FmsReaddirPlus.calls"), std::string::npos);
  EXPECT_NE(text.find("rpc.batch.subops"), std::string::npos);
}

TEST_F(TcpClusterTest, BatchOpsWithOneFmsStoppedFailOnlyItsGroup) {
  // CreateMany and StatMany send their per-FMS frames as one fan-out: a dead
  // FMS must fail exactly its own group's items, and the live group's
  // results must come back intact.
  auto& c = *static_cast<core::LocoClient*>(client_.get());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/half", 0755)).ok());
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("f" + std::to_string(i));
  auto created = net::RunInline(c.CreateMany("/half", names, 0644));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  for (const ErrCode code : *created) ASSERT_EQ(code, ErrCode::kOk);

  fms_servers_[1]->Stop();

  auto stats = net::RunInline(c.StatMany("/half", names));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), names.size());
  int live = 0, dead = 0;
  for (const auto& entry : *stats) {
    if (entry.code == ErrCode::kOk) {
      ++live;
      EXPECT_EQ(entry.attr.mode, 0644u);
      EXPECT_FALSE(entry.attr.is_dir);
    } else {
      ++dead;
      EXPECT_EQ(entry.code, ErrCode::kUnavailable);
    }
  }
  EXPECT_GT(live, 0);
  EXPECT_GT(dead, 0);

  // New names split across both FMS the same way: each created entry must
  // be readable, each failed one unavailable.
  std::vector<std::string> more;
  for (int i = 0; i < 40; ++i) more.push_back("g" + std::to_string(i));
  auto codes = net::RunInline(c.CreateMany("/half", more, 0644));
  ASSERT_TRUE(codes.ok()) << codes.status().ToString();
  ASSERT_EQ(codes->size(), more.size());
  int created_live = 0, created_dead = 0;
  for (std::size_t i = 0; i < more.size(); ++i) {
    if ((*codes)[i] == ErrCode::kOk) {
      ++created_live;
      EXPECT_TRUE(net::RunInline(c.Stat("/half/" + more[i])).ok()) << more[i];
    } else {
      ++created_dead;
      EXPECT_EQ((*codes)[i], ErrCode::kUnavailable) << more[i];
    }
  }
  EXPECT_GT(created_live, 0);
  EXPECT_GT(created_dead, 0);
}

TEST_F(TcpClusterTest, RenameAndReaddirFanOutsOverTcp) {
  // A warm listing puts its DMS leg and both FMS legs on the wire at once,
  // and a rename its probes: the replies of different servers must land on
  // the right legs.
  auto& c = *static_cast<core::LocoClient*>(client_.get());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/r", 0755)).ok());
  ASSERT_TRUE(net::RunInline(c.Mkdir("/r/sub", 0755)).ok());
  for (int i = 0; i < 12; ++i) {  // spread over both FMS; leases /r
    ASSERT_TRUE(net::RunInline(c.Create("/r/f" + std::to_string(i), 0644)).ok());
  }
  auto names_of = [&c](const std::string& dir) {
    std::vector<std::string> names;
    auto entries = net::RunInline(c.Readdir(dir));
    EXPECT_TRUE(entries.ok()) << dir << ": " << entries.status().ToString();
    if (entries.ok()) {
      for (const auto& e : *entries) names.push_back(e.name);
    }
    return names;
  };
  std::vector<std::string> want = {"f0", "f1", "f10", "f11", "f2", "f3",
                                   "f4", "f5",  "f6",  "f7",  "f8", "f9",
                                   "sub"};
  EXPECT_EQ(names_of("/r"), want);
  auto plus = net::RunInline(c.ReaddirPlus("/r"));
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  ASSERT_EQ(plus->size(), want.size());
  for (const auto& e : *plus) {
    EXPECT_EQ(e.is_dir, e.name == "sub") << e.name;
    if (!e.is_dir) {
      EXPECT_EQ(e.code, ErrCode::kOk) << e.name;
      EXPECT_EQ(e.attr.mode, 0644u) << e.name;
    }
  }

  // Both rename kinds, then the error precedence the probes decide.
  ASSERT_TRUE(net::RunInline(c.Rename("/r/sub", "/r/sub2")).ok());
  ASSERT_TRUE(net::RunInline(c.Rename("/r/f0", "/r/g0")).ok());
  EXPECT_EQ(net::RunInline(c.Rename("/r/missing", "/r/f1")).code(),
            ErrCode::kNotFound);
  EXPECT_EQ(net::RunInline(c.Rename("/r/sub2", "/r/f1")).code(),
            ErrCode::kExists);
  EXPECT_EQ(net::RunInline(c.Rename("/r/f1", "/r/sub2")).code(),
            ErrCode::kExists);
  want.erase(want.begin());  // f0
  want.back() = "sub2";
  want.insert(want.end() - 1, "g0");
  EXPECT_EQ(names_of("/r"), want);

  // A second client of the same mount moves /r away and makes a new /r: the
  // first client's lease (not pushed: the DMS spares the mutating mount)
  // still holds the old uuid, and the listing must follow the DMS reply.
  auto other = mount_.MakeClient([this] { return ++clock_; });
  other->SetIdentity(fs::Identity{1000, 1000});
  ASSERT_TRUE(net::RunInline(other->Rename("/r", "/moved")).ok());
  ASSERT_TRUE(net::RunInline(other->Mkdir("/r", 0755)).ok());
  ASSERT_TRUE(net::RunInline(other->Create("/r/x", 0644)).ok());
  EXPECT_EQ(names_of("/r"), std::vector<std::string>{"x"});
  EXPECT_EQ(names_of("/moved"), want);
}

// Every request is served by the worker pool or the event loop: a daemon
// needs at least one worker, so --workers 0 is a usage error.
TEST(DaemonTest, WorkersBelowOneIsAUsageError) {
  int workers = 7;
  EXPECT_FALSE(daemons::ParseWorkers("test", "0", &workers));
  EXPECT_FALSE(daemons::ParseWorkers("test", "-2", &workers));
  EXPECT_EQ(workers, 7);
  EXPECT_TRUE(daemons::ParseWorkers("test", "3", &workers));
  EXPECT_EQ(workers, 3);
  EXPECT_TRUE(daemons::ParseWorkers("test", "", &workers));
  EXPECT_GE(workers, 1);
}

// ---------------------------------------------------------------------------
// Daemon binaries: spawn locofs_dmsd, parse its "listening on" line, RPC to
// it over TCP, shut it down with SIGTERM and check the --metrics-out dump.
// ---------------------------------------------------------------------------

#ifdef LOCO_DAEMON_DIR

struct DaemonProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

// Returns pid -1 when the daemon could not be spawned or parsed.
DaemonProcess SpawnDaemon(const std::string& binary,
                          const std::vector<std::string>& extra_args) {
  DaemonProcess proc;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return proc;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return proc;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    static const std::string listen_flag = "--listen";
    static const std::string listen_addr = "127.0.0.1:0";
    argv.push_back(const_cast<char*>(listen_flag.c_str()));
    argv.push_back(const_cast<char*>(listen_addr.c_str()));
    for (const std::string& a : extra_args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  // Parse "<name>: listening on 127.0.0.1:<port>\n".
  std::string line;
  char ch;
  while (line.size() < 256 && ::read(out_pipe[0], &ch, 1) == 1 && ch != '\n') {
    line.push_back(ch);
  }
  ::close(out_pipe[0]);
  const std::size_t colon = line.rfind(':');
  if (colon != std::string::npos) {
    proc.port = static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + colon + 1, nullptr, 10));
  }
  if (proc.port == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return proc;
  }
  proc.pid = pid;
  return proc;
}

TEST(DaemonTest, DmsdServesRpcsAndDumpsMetricsOnSigterm) {
  const std::string binary = std::string(LOCO_DAEMON_DIR) + "/locofs_dmsd";
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "daemon binary not built: " << binary;
  }
  const std::string metrics_path =
      ::testing::TempDir() + "locofs_dmsd_metrics.json";
  std::remove(metrics_path.c_str());

  const DaemonProcess daemon =
      SpawnDaemon(binary, {"--metrics-out", metrics_path});
  ASSERT_GT(daemon.pid, 0) << "failed to spawn " << binary;

  net::TcpChannel channel;
  channel.Register(0, "127.0.0.1", daemon.port);
  net::RpcResponse mkdir_resp;
  channel.CallAsync(
      0, core::proto::kDmsMkdir,
      fs::Pack(std::string("/daemon-dir"), std::uint32_t{0755},
               fs::Identity{1000, 1000}, std::uint64_t{1}),
      [&](net::RpcResponse r) { mkdir_resp = std::move(r); });
  EXPECT_EQ(mkdir_resp.code, ErrCode::kOk);

  net::RpcResponse stat_resp;
  channel.CallAsync(0, core::proto::kDmsStat,
                    fs::Pack(std::string("/daemon-dir"), fs::Identity{1000, 1000}),
                    [&](net::RpcResponse r) { stat_resp = std::move(r); });
  EXPECT_EQ(stat_resp.code, ErrCode::kOk);

  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &wstatus, 0), daemon.pid);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);

  // The shutdown dump exists and carries non-empty gauges: the DMS's KV
  // gauges were retired into the registry when the server was destroyed.
  std::FILE* f = std::fopen(metrics_path.c_str(), "r");
  ASSERT_NE(f, nullptr) << metrics_path;
  std::string dump;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) dump.append(buf, n);
  std::fclose(f);
  std::remove(metrics_path.c_str());

  EXPECT_NE(dump.find("rpc.tcp_server.DmsMkdir.calls"), std::string::npos);
  EXPECT_NE(dump.find("server.dms.kv."), std::string::npos) << dump;
}

#endif  // LOCO_DAEMON_DIR

}  // namespace
}  // namespace loco
