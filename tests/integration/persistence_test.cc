// Persistence integration: a LocoFS metadata deployment backed by on-disk
// WALs survives a full server restart — directory tree, file inodes
// (both parts), dirent lists, permissions, and the uuid allocators.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/layout.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "kvstore/striped_kv.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("locofs_persist_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  struct Stack {
    net::InProcTransport transport;
    std::unique_ptr<DirectoryMetadataServer> dms;
    std::vector<std::unique_ptr<FileMetadataServer>> fms;
    std::unique_ptr<ObjectStoreServer> obj;
    std::unique_ptr<LocoClient> client;
    std::uint64_t clock = 1;
  };

  std::unique_ptr<Stack> Boot(int n_fms) {
    auto stack = std::make_unique<Stack>();
    DirectoryMetadataServer::Options dopt;
    dopt.kv.dir = (root_ / "dms").string();
    std::filesystem::create_directories(dopt.kv.dir);
    stack->dms = std::make_unique<DirectoryMetadataServer>(dopt);
    stack->transport.Register(0, stack->dms.get());

    LocoClient::Config cfg;
    cfg.dms = {0};
    for (int i = 0; i < n_fms; ++i) {
      FileMetadataServer::Options fopt;
      fopt.sid = static_cast<std::uint32_t>(i + 1);
      fopt.kv.dir = (root_ / ("fms" + std::to_string(i))).string();
      std::filesystem::create_directories(fopt.kv.dir);
      stack->fms.push_back(std::make_unique<FileMetadataServer>(fopt));
      stack->transport.Register(1 + static_cast<net::NodeId>(i),
                                stack->fms.back().get());
      cfg.fms.push_back(1 + static_cast<net::NodeId>(i));
    }
    stack->obj = std::make_unique<ObjectStoreServer>();
    stack->transport.Register(100, stack->obj.get());
    cfg.object_stores = {100};
    Stack* raw = stack.get();
    cfg.now = [raw] { return raw->clock++; };
    stack->client = std::make_unique<LocoClient>(stack->transport, cfg);
    return stack;
  }

  std::filesystem::path root_;
};

TEST_F(PersistenceTest, NamespaceSurvivesRestart) {
  fs::Uuid uuid_before;
  {
    auto stack = Boot(3);
    LocoClient& c = *stack->client;
    ASSERT_TRUE(net::RunInline(c.Mkdir("/proj", 0750)).ok());
    ASSERT_TRUE(net::RunInline(c.Mkdir("/proj/sub", 0755)).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(net::RunInline(
          c.Create("/proj/sub/f" + std::to_string(i), 0640)).ok());
    }
    ASSERT_TRUE(net::RunInline(c.Chmod("/proj/sub/f3", 0600)).ok());
    ASSERT_TRUE(net::RunInline(c.Truncate("/proj/sub/f4", 4096)).ok());
    ASSERT_TRUE(net::RunInline(c.Unlink("/proj/sub/f5")).ok());
    uuid_before = net::RunInline(c.Stat("/proj/sub/f0"))->uuid;
  }  // servers destroyed: "crash"

  auto stack = Boot(3);
  LocoClient& c = *stack->client;
  auto dir = net::RunInline(c.Stat("/proj"));
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->mode, 0750u);
  auto entries = net::RunInline(c.Readdir("/proj/sub"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 19u);  // 20 created, 1 unlinked
  EXPECT_EQ(net::RunInline(c.Stat("/proj/sub/f5")).code(), ErrCode::kNotFound);
  EXPECT_EQ(net::RunInline(c.Stat("/proj/sub/f3"))->mode, 0600u);
  EXPECT_EQ(net::RunInline(c.Stat("/proj/sub/f4"))->size, 4096u);
  // Identity survives: same uuid after restart.
  EXPECT_EQ(net::RunInline(c.Stat("/proj/sub/f0"))->uuid, uuid_before);
}

TEST_F(PersistenceTest, UuidAllocatorDoesNotReissueAfterRestart) {
  fs::Uuid first;
  {
    auto stack = Boot(1);
    ASSERT_TRUE(net::RunInline(stack->client->Create("/a", 0644)).ok());
    first = net::RunInline(stack->client->Stat("/a"))->uuid;
  }
  auto stack = Boot(1);
  ASSERT_TRUE(net::RunInline(stack->client->Create("/b", 0644)).ok());
  const fs::Uuid second = net::RunInline(stack->client->Stat("/b"))->uuid;
  EXPECT_EQ(first.sid(), second.sid());
  EXPECT_GT(second.fid(), first.fid());
}

TEST_F(PersistenceTest, RenameSurvivesRestart) {
  {
    auto stack = Boot(2);
    LocoClient& c = *stack->client;
    ASSERT_TRUE(net::RunInline(c.Mkdir("/old", 0755)).ok());
    ASSERT_TRUE(net::RunInline(c.Mkdir("/old/deep", 0755)).ok());
    ASSERT_TRUE(net::RunInline(c.Create("/old/deep/f", 0644)).ok());
    ASSERT_TRUE(net::RunInline(c.Rename("/old", "/new")).ok());
  }
  auto stack = Boot(2);
  LocoClient& c = *stack->client;
  EXPECT_EQ(net::RunInline(c.Stat("/old")).code(), ErrCode::kNotFound);
  EXPECT_TRUE(net::RunInline(c.Stat("/new/deep/f")).ok());
  auto entries = net::RunInline(c.Readdir("/new/deep"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "f");
}

TEST_F(PersistenceTest, DirentWalBytesPerCreateStayFlatAndReplay) {
  // One record per entry: a create logs its own record, not the directory's
  // whole listing, so the dirent WAL bytes per create do not grow with the
  // directory; a restart replays the listing from those records.
  FileMetadataServer::Options options;
  options.sid = 1;
  options.kv.dir = (root_ / "fms").string();
  const fs::Uuid dir = fs::Uuid::Make(0xfffe, 9);
  const fs::Identity who{1000, 1000};
  int created = 0;
  auto create_up_to = [&](FileMetadataServer& fms, int target) {
    for (; created < target; ++created) {
      char name[16];
      std::snprintf(name, sizeof(name), "f%06d", created);
      ASSERT_TRUE(fms.Handle(proto::kFmsCreate,
                             fs::Pack(dir, std::string(name), 0644u, who,
                                      std::uint64_t{1}))
                      .ok());
    }
  };
  auto wal_bytes_per_create = [&](FileMetadataServer& fms) {
    const std::uint64_t before = fms.dirent_kv().stats().io_bytes;
    create_up_to(fms, created + 200);
    return static_cast<double>(fms.dirent_kv().stats().io_bytes - before) /
           200.0;
  };
  {
    FileMetadataServer fms(options);
    create_up_to(fms, 1'000);
    const double at_1k = wal_bytes_per_create(fms);
    create_up_to(fms, 20'000);
    const double at_20k = wal_bytes_per_create(fms);
    EXPECT_GT(at_1k, 0.0);
    EXPECT_LT(at_1k, 64.0);
    EXPECT_LE(at_20k, at_1k * 1.1) << at_1k << " -> " << at_20k;
  }
  FileMetadataServer fms(options);
  auto resp = fms.Handle(proto::kFmsReaddir, fs::Pack(dir));
  ASSERT_TRUE(resp.ok());
  std::vector<fs::DirEntry> entries;
  ASSERT_TRUE(fs::Unpack(resp.payload, entries));
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(created));
  EXPECT_EQ(entries.front().name, "f000000");
  EXPECT_EQ(entries.back().name, "f020199");
}

TEST_F(PersistenceTest, ConcatenatedListStoreIsNeverReplayedAsRecords) {
  // A store directory written before the record format holds one
  // concatenated value per directory under "dirents".  The servers keep
  // their records under "dirent_records", so that value never surfaces as
  // a bogus entry.
  const fs::Uuid dir = fs::Uuid::Make(0xfffe, 9);
  const std::string fms_dir = (root_ / "fms").string();
  {
    kv::KvOptions old;
    old.dir = fms_dir + "/dirents";
    auto store = kv::MakeStripedKv(kv::KvBackend::kHash, old, 16);
    ASSERT_TRUE(store.ok());
    common::Writer list;
    list.PutBytes("old-a");
    list.PutBytes("old-b");
    ASSERT_TRUE(store.value()->Put(DirentPrefix(dir), list.str()).ok());
  }
  FileMetadataServer::Options options;
  options.sid = 1;
  options.kv.dir = fms_dir;
  FileMetadataServer fms(options);
  EXPECT_TRUE(std::filesystem::exists(fms_dir + "/dirent_records"));
  EXPECT_TRUE(fms.Handle(proto::kFmsCheckEmpty, fs::Pack(dir)).ok());
  auto resp = fms.Handle(proto::kFmsReaddir, fs::Pack(dir));
  std::vector<fs::DirEntry> entries;
  ASSERT_TRUE(fs::Unpack(resp.payload, entries));
  EXPECT_TRUE(entries.empty());

  DirectoryMetadataServer::Options dopt;
  dopt.kv.dir = (root_ / "dms").string();
  DirectoryMetadataServer dms(dopt);
  EXPECT_TRUE(std::filesystem::exists(dopt.kv.dir + "/dirent_records"));
}

TEST_F(PersistenceTest, RepeatedRestartsAreStable) {
  for (int epoch = 0; epoch < 4; ++epoch) {
    auto stack = Boot(2);
    LocoClient& c = *stack->client;
    const std::string dir = "/epoch" + std::to_string(epoch);
    ASSERT_TRUE(net::RunInline(c.Mkdir(dir, 0755)).ok()) << epoch;
    ASSERT_TRUE(net::RunInline(c.Create(dir + "/f", 0644)).ok()) << epoch;
    // Everything from earlier epochs is still present.
    for (int prev = 0; prev < epoch; ++prev) {
      EXPECT_TRUE(net::RunInline(
          c.Stat("/epoch" + std::to_string(prev) + "/f")).ok())
          << epoch << "/" << prev;
    }
  }
}

}  // namespace
}  // namespace loco::core
