// Multi-client integration tests over the in-process transport with REAL
// threads: concurrent clients race on a live LocoFS deployment.
// InProcTransport takes no lock of its own, so two clients' requests run
// inside one server's handler at the same time, exactly as on a
// multi-worker TcpServer: these tests exercise true interleavings of the
// client protocols and of the servers' own locking.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::core {
namespace {

struct Cluster {
  explicit Cluster(int n_fms = 4) {
    transport.Register(0, &dms);
    for (int i = 0; i < n_fms; ++i) {
      FileMetadataServer::Options options;
      options.sid = static_cast<std::uint32_t>(i + 1);
      fms.push_back(std::make_unique<FileMetadataServer>(options));
      transport.Register(1 + static_cast<net::NodeId>(i), fms.back().get());
      fms_nodes.push_back(1 + static_cast<net::NodeId>(i));
    }
    obj = std::make_unique<ObjectStoreServer>();
    transport.Register(100, obj.get());
  }

  std::unique_ptr<LocoClient> NewClient(bool cache = true) {
    LocoClient::Config cfg;
    cfg.dms = {0};
    cfg.fms = fms_nodes;
    cfg.object_stores = {100};
    cfg.cache_enabled = cache;
    cfg.now = [this] {
      return clock.fetch_add(1, std::memory_order_relaxed);
    };
    return std::make_unique<LocoClient>(transport, cfg);
  }

  std::atomic<std::uint64_t> clock{1};
  net::InProcTransport transport;
  DirectoryMetadataServer dms;
  std::vector<std::unique_ptr<FileMetadataServer>> fms;
  std::vector<net::NodeId> fms_nodes;
  std::unique_ptr<ObjectStoreServer> obj;
};

TEST(MultiClientTest, ConcurrentCreatesInSharedDirectory) {
  Cluster cluster;
  auto admin = cluster.NewClient();
  ASSERT_TRUE(net::RunInline(admin->Mkdir("/shared", 0777)).ok());

  constexpr int kThreads = 8;
  constexpr int kFilesEach = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster, &failures, t] {
      auto client = cluster.NewClient();
      for (int i = 0; i < kFilesEach; ++i) {
        const std::string path =
            "/shared/t" + std::to_string(t) + "_" + std::to_string(i);
        if (!net::RunInline(client->Create(path, 0644)).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, 0);

  auto entries = net::RunInline(admin->Readdir("/shared"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(),
            static_cast<std::size_t>(kThreads) * kFilesEach);
  // No duplicates (dirent lists consistent under concurrency).
  std::set<std::string> names;
  for (const auto& e : *entries) names.insert(e.name);
  EXPECT_EQ(names.size(), entries->size());
}

TEST(MultiClientTest, ConcurrentCreateSamePathExactlyOneWins) {
  Cluster cluster;
  auto admin = cluster.NewClient();
  ASSERT_TRUE(net::RunInline(admin->Mkdir("/race", 0777)).ok());

  for (int round = 0; round < 20; ++round) {
    const std::string path = "/race/f" + std::to_string(round);
    std::atomic<int> winners{0};
    std::atomic<int> exists{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&cluster, &path, &winners, &exists] {
        auto client = cluster.NewClient();
        const Status st = net::RunInline(client->Create(path, 0644));
        if (st.ok()) {
          ++winners;
        } else if (st.code() == ErrCode::kExists) {
          ++exists;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(winners, 1) << path;
    EXPECT_EQ(exists, 5) << path;
  }
}

TEST(MultiClientTest, ConcurrentMkdirSamePathExactlyOneWins) {
  Cluster cluster;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cluster, &winners] {
      auto client = cluster.NewClient();
      if (net::RunInline(client->Mkdir("/contested", 0755)).ok()) ++winners;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners, 1);
}

TEST(MultiClientTest, LeaseMasksRemoteChmodUntilExpiry) {
  Cluster cluster;
  auto alice = cluster.NewClient(/*cache=*/true);
  auto bob = cluster.NewClient(/*cache=*/true);
  alice->SetIdentity(fs::Identity{1000, 1000});
  bob->SetIdentity(fs::Identity{1000, 1000});  // same user, two processes

  ASSERT_TRUE(net::RunInline(alice->Mkdir("/d", 0755)).ok());
  // Alice warms her lease on /d.
  ASSERT_TRUE(net::RunInline(alice->Create("/d/warm", 0644)).ok());

  // Bob (a different client process) revokes write permission on /d.
  ASSERT_TRUE(net::RunInline(bob->Chmod("/d", 0555)).ok());

  // Within her lease Alice's create still passes the client-side check and
  // succeeds — the documented lease-consistency window (§3.2.2).
  EXPECT_TRUE(net::RunInline(alice->Create("/d/stale_ok", 0644)).ok());

  // After the lease expires, the DMS re-checks and denies.
  cluster.clock.fetch_add(31ull * 1'000'000'000);
  EXPECT_EQ(net::RunInline(alice->Create("/d/late", 0644)).code(),
            ErrCode::kPermission);
}

TEST(MultiClientTest, CreateUnlinkStormLeavesConsistentState) {
  Cluster cluster;
  auto admin = cluster.NewClient();
  ASSERT_TRUE(net::RunInline(admin->Mkdir("/storm", 0777)).ok());

  constexpr int kThreads = 6;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster, &stop, t] {
      auto client = cluster.NewClient();
      const std::string mine = "/storm/worker" + std::to_string(t);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string path = mine + "_" + std::to_string(i % 5);
        (void)net::RunInline(client->Create(path, 0644));
        (void)net::RunInline(client->Write(path, 0, "x"));
        (void)net::RunInline(client->Unlink(path));
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  for (auto& th : threads) th.join();

  // Whatever survived, the namespace must be internally consistent: every
  // listed entry must stat, and the dir must be removable once emptied.
  auto entries = net::RunInline(admin->Readdir("/storm"));
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) {
    EXPECT_TRUE(net::RunInline(admin->Unlink("/storm/" + e.name)).ok())
        << e.name;
  }
  EXPECT_TRUE(net::RunInline(admin->Rmdir("/storm")).ok());
}

TEST(MultiClientTest, RenameVsCreateRaceStaysConsistent) {
  Cluster cluster;
  auto admin = cluster.NewClient();
  ASSERT_TRUE(net::RunInline(admin->Mkdir("/from", 0777)).ok());

  std::atomic<bool> go{false};
  std::thread renamer([&cluster, &go] {
    auto client = cluster.NewClient(/*cache=*/false);
    while (!go) std::this_thread::yield();
    (void)net::RunInline(client->Rename("/from", "/to"));
  });
  std::thread creator([&cluster, &go] {
    auto client = cluster.NewClient(/*cache=*/false);
    while (!go) std::this_thread::yield();
    for (int i = 0; i < 50; ++i) {
      (void)net::RunInline(client->Create("/from/f" + std::to_string(i), 0644));
    }
  });
  go = true;
  renamer.join();
  creator.join();

  // Exactly one of /from, /to exists as the directory; both namespaces
  // must readdir cleanly.
  auto from_stat = net::RunInline(admin->Stat("/from"));
  auto to_stat = net::RunInline(admin->Stat("/to"));
  EXPECT_TRUE(to_stat.ok());
  if (from_stat.ok()) {
    EXPECT_TRUE(net::RunInline(admin->Readdir("/from")).ok());
  }
  EXPECT_TRUE(net::RunInline(admin->Readdir("/to")).ok());
}

TEST(MultiClientTest, ReaddirOnStaleLeaseListsCurrentDirectory) {
  // A warm listing sends its FMS legs with the uuid A's lease holds.  Once
  // another client moves the directory away and makes a new one at the same
  // path, that uuid names the moved directory: the DMS reply's uuid must
  // overrule it.  Each listing kind gets its own stale lease.
  for (const bool plus : {false, true}) {
    SCOPED_TRACE(plus ? "ReaddirPlus" : "Readdir");
    Cluster cluster;
    auto a = cluster.NewClient();
    auto b = cluster.NewClient();
    ASSERT_TRUE(net::RunInline(a->Mkdir("/d", 0777)).ok());
    ASSERT_TRUE(net::RunInline(a->Create("/d/f1", 0644)).ok());  // leases /d
    ASSERT_TRUE(net::RunInline(b->Rename("/d", "/e")).ok());
    ASSERT_TRUE(net::RunInline(b->Mkdir("/d", 0777)).ok());
    ASSERT_TRUE(net::RunInline(b->Create("/d/x", 0644)).ok());

    std::vector<std::string> names;
    if (plus) {
      auto entries = net::RunInline(a->ReaddirPlus("/d"));
      ASSERT_TRUE(entries.ok()) << entries.status().ToString();
      for (const auto& e : *entries) names.push_back(e.name);
    } else {
      auto entries = net::RunInline(a->Readdir("/d"));
      ASSERT_TRUE(entries.ok()) << entries.status().ToString();
      for (const auto& e : *entries) names.push_back(e.name);
    }
    EXPECT_EQ(names, std::vector<std::string>{"x"});

    // The listing dropped the stale lease: A's next create lands in the new
    // /d, not in the moved directory.
    ASSERT_TRUE(net::RunInline(a->Create("/d/y", 0644)).ok());
    auto now = net::RunInline(b->Readdir("/d"));
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(now->size(), 2u);
    auto moved = net::RunInline(b->Readdir("/e"));
    ASSERT_TRUE(moved.ok());
    EXPECT_EQ(moved->size(), 1u);  // f1 alone
  }
}

}  // namespace
}  // namespace loco::core
