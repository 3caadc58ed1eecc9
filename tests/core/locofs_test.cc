// Directed tests of the full LocoFS stack (DMS + FMS + object stores +
// LocoClient) over the in-process transport, including RPC-count assertions
// that pin the operation -> round-trip decomposition of DESIGN.md §5.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/client.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "net/inproc.h"
#include "net/task.h"

namespace loco::core {
namespace {

constexpr net::NodeId kDms = 0;
constexpr net::NodeId kFmsBase = 1;
constexpr net::NodeId kObjBase = 100;

struct LocoFixture {
  explicit LocoFixture(int n_fms = 4, bool cache = true, bool decoupled = true) {
    transport.Register(kDms, &dms);
    LocoClient::Config cfg;
    cfg.dms = {kDms};
    for (int i = 0; i < n_fms; ++i) {
      FileMetadataServer::Options fo;
      fo.sid = static_cast<std::uint32_t>(i + 1);
      fo.decoupled = decoupled;
      fms.push_back(std::make_unique<FileMetadataServer>(fo));
      transport.Register(kFmsBase + static_cast<net::NodeId>(i), fms.back().get());
      cfg.fms.push_back(kFmsBase + static_cast<net::NodeId>(i));
    }
    for (int i = 0; i < 2; ++i) {
      objs.push_back(std::make_unique<ObjectStoreServer>());
      transport.Register(kObjBase + static_cast<net::NodeId>(i), objs.back().get());
      cfg.object_stores.push_back(kObjBase + static_cast<net::NodeId>(i));
    }
    cfg.cache_enabled = cache;
    cfg.now = [this] { return clock; };
    config = cfg;
    client = std::make_unique<LocoClient>(transport, cfg);
  }

  std::uint64_t TotalFmsCalls() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < fms.size(); ++i) {
      n += transport.CallCount(kFmsBase + static_cast<net::NodeId>(i));
    }
    return n;
  }

  std::uint64_t clock = 1;
  LocoClient::Config config;  // what `client` was built with
  net::InProcTransport transport;
  DirectoryMetadataServer dms;
  std::vector<std::unique_ptr<FileMetadataServer>> fms;
  std::vector<std::unique_ptr<ObjectStoreServer>> objs;
  std::unique_ptr<LocoClient> client;
};

TEST(LocoFsTest, MkdirCreateStatRoundTrip) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/proj", 0755)).ok());
  fx.clock = 5;
  ASSERT_TRUE(net::RunInline(fx.client->Create("/proj/a.txt", 0644)).ok());
  auto st = net::RunInline(fx.client->Stat("/proj/a.txt"));
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_dir);
  EXPECT_EQ(st->mode, 0644u);
  EXPECT_EQ(st->ctime, 5u);
  EXPECT_EQ(st->size, 0u);
  auto sd = net::RunInline(fx.client->Stat("/proj"));
  ASSERT_TRUE(sd.ok());
  EXPECT_TRUE(sd->is_dir);
}

TEST(LocoFsTest, CreateExistsAndMissingParent) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Create("/f", 0644)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Create("/f", 0644)).code(), ErrCode::kExists);
  EXPECT_EQ(net::RunInline(fx.client->Create("/nodir/f", 0644)).code(),
            ErrCode::kNotFound);
}

TEST(LocoFsTest, MkdirShadowedByFileNameViaLookupCheck) {
  // Uncached path: creating a file whose name collides with a subdirectory
  // is rejected by the DMS lookup shadow check.
  LocoFixture fx(4, /*cache=*/false);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/x", 0755)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Create("/x", 0644)).code(), ErrCode::kExists);
}

TEST(LocoFsTest, UnlinkAndErrorClassification) {
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    LocoFixture fx(4, cache);
    LocoClient& c = *fx.client;
    ASSERT_TRUE(net::RunInline(c.Mkdir("/d", 0755)).ok());
    ASSERT_TRUE(net::RunInline(c.Create("/d/f", 0644)).ok());
    EXPECT_EQ(net::RunInline(c.Unlink("/d")).code(), ErrCode::kIsDir);
    // Directory ops on a file say kNotDir; on nothing at all, kNotFound.
    EXPECT_EQ(net::RunInline(c.Readdir("/d/f")).code(), ErrCode::kNotDir);
    EXPECT_EQ(net::RunInline(c.ReaddirPlus("/d/f")).code(), ErrCode::kNotDir);
    EXPECT_EQ(net::RunInline(c.Rmdir("/d/f")).code(), ErrCode::kNotDir);
    EXPECT_EQ(net::RunInline(c.Readdir("/d/none")).code(), ErrCode::kNotFound);
    EXPECT_EQ(net::RunInline(c.ReaddirPlus("/d/none")).code(),
              ErrCode::kNotFound);
    EXPECT_EQ(net::RunInline(c.Rmdir("/d/none")).code(), ErrCode::kNotFound);
    ASSERT_TRUE(net::RunInline(c.Unlink("/d/f")).ok());
    EXPECT_EQ(net::RunInline(c.Unlink("/d/f")).code(), ErrCode::kNotFound);
    EXPECT_TRUE(net::RunInline(c.Rmdir("/d")).ok());
  }
}

TEST(LocoFsTest, RmdirChecksFilesOnEveryFms) {
  LocoFixture fx(4);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  // Spread several files so at least one lands on some FMS.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(net::RunInline(
        fx.client->Create("/d/file" + std::to_string(i), 0644)).ok());
  }
  EXPECT_EQ(net::RunInline(fx.client->Rmdir("/d")).code(), ErrCode::kNotEmpty);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(net::RunInline(
        fx.client->Unlink("/d/file" + std::to_string(i))).ok());
  }
  EXPECT_TRUE(net::RunInline(fx.client->Rmdir("/d")).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/d")).code(), ErrCode::kNotFound);
}

TEST(LocoFsTest, ReaddirMergesDmsAndAllFms) {
  LocoFixture fx(4);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d/sub1", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d/sub2", 0755)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net::RunInline(
        fx.client->Create("/d/f" + std::to_string(i), 0644)).ok());
  }
  auto entries = net::RunInline(fx.client->Readdir("/d"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 12u);
  // Sorted, with correct types.
  EXPECT_EQ((*entries)[0].name, "f0");
  EXPECT_FALSE((*entries)[0].is_dir);
  EXPECT_EQ((*entries)[10].name, "sub1");
  EXPECT_TRUE((*entries)[10].is_dir);
}

TEST(LocoFsTest, CreateRpcCountsMatchDesign) {
  // Cold create: 1 DMS lookup + 1 FMS create.  Warm create in the same
  // directory: 1 FMS create only (the client cache removes the DMS hop).
  LocoFixture fx(4, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  const std::uint64_t dms_before = fx.transport.CallCount(kDms);
  const std::uint64_t fms_before = fx.TotalFmsCalls();
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/a", 0644)).ok());
  EXPECT_EQ(fx.transport.CallCount(kDms) - dms_before, 1u);
  EXPECT_EQ(fx.TotalFmsCalls() - fms_before, 1u);
  const std::uint64_t dms_mid = fx.transport.CallCount(kDms);
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/b", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/c", 0644)).ok());
  EXPECT_EQ(fx.transport.CallCount(kDms), dms_mid);  // cache hits: no DMS RPC
  EXPECT_EQ(fx.client->cache_hits(), 2u);
}

TEST(LocoFsTest, NoCacheCreateAlwaysHitsDms) {
  LocoFixture fx(4, /*cache=*/false);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  const std::uint64_t dms_before = fx.transport.CallCount(kDms);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net::RunInline(
        fx.client->Create("/d/f" + std::to_string(i), 0644)).ok());
  }
  EXPECT_EQ(fx.transport.CallCount(kDms) - dms_before, 3u);
}

TEST(LocoFsTest, MkdirIsSingleDmsRpc) {
  LocoFixture fx;
  const std::uint64_t fms_before = fx.TotalFmsCalls();
  const std::uint64_t dms_before = fx.transport.CallCount(kDms);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/solo", 0755)).ok());
  EXPECT_EQ(fx.transport.CallCount(kDms) - dms_before, 1u);
  EXPECT_EQ(fx.TotalFmsCalls() - fms_before, 0u);
}

TEST(LocoFsTest, LeaseExpiryForcesRevalidation) {
  LocoFixture fx(2, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/a", 0644)).ok());  // miss
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/b", 0644)).ok());  // hit
  EXPECT_EQ(fx.client->cache_hits(), 1u);
  fx.clock += 31ull * 1'000'000'000;  // beyond the 30 s lease
  const std::uint64_t dms_before = fx.transport.CallCount(kDms);
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/c", 0644)).ok());
  EXPECT_EQ(fx.transport.CallCount(kDms) - dms_before, 1u);  // re-validated
}

TEST(LocoFsTest, ChmodChownOnFileAndDir) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/f", 0644)).ok());
  fx.clock = 9;
  ASSERT_TRUE(net::RunInline(fx.client->Chmod("/d/f", 0600)).ok());
  auto st = net::RunInline(fx.client->Stat("/d/f"));
  EXPECT_EQ(st->mode, 0600u);
  EXPECT_EQ(st->ctime, 9u);
  ASSERT_TRUE(net::RunInline(fx.client->Chmod("/d", 0700)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/d"))->mode, 0700u);
  ASSERT_TRUE(net::RunInline(fx.client->Chown("/d/f", 1000, 42)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/d/f"))->gid, 42u);
}

TEST(LocoFsTest, WriteReadTruncateThroughObjectStore) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Create("/data", 0644)).ok());
  fx.clock = 7;
  ASSERT_TRUE(net::RunInline(fx.client->Write("/data", 0, "hello world")).ok());
  auto st = net::RunInline(fx.client->Stat("/data"));
  EXPECT_EQ(st->size, 11u);
  EXPECT_EQ(st->mtime, 7u);
  auto text = net::RunInline(fx.client->Read("/data", 6, 64));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "world");
  // Cross-block write (object store blocks are 64 KiB).
  const std::string big(200'000, 'Q');
  ASSERT_TRUE(net::RunInline(fx.client->Write("/data", 100, big)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/data"))->size, 200'100u);
  auto tail = net::RunInline(fx.client->Read("/data", 200'099, 10));
  EXPECT_EQ(*tail, "Q");
  // Hole between 11 and 100 reads as zeros.
  auto hole = net::RunInline(fx.client->Read("/data", 11, 89));
  EXPECT_EQ(*hole, std::string(89, '\0'));
  ASSERT_TRUE(net::RunInline(fx.client->Truncate("/data", 5)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/data"))->size, 5u);
  EXPECT_EQ(*net::RunInline(fx.client->Read("/data", 0, 100)), "hello");
}

TEST(LocoFsTest, FileRenameKeepsUuidAndData) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/a", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/b", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/a/f", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Write("/a/f", 0, "payload")).ok());
  const fs::Uuid uuid_before = net::RunInline(fx.client->Stat("/a/f"))->uuid;
  ASSERT_TRUE(net::RunInline(fx.client->Rename("/a/f", "/b/g")).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/a/f")).code(), ErrCode::kNotFound);
  auto st = net::RunInline(fx.client->Stat("/b/g"));
  ASSERT_TRUE(st.ok());
  // UUID indirection (§3.4.2): the file keeps its uuid, so its data blocks
  // were never relocated.
  EXPECT_EQ(st->uuid, uuid_before);
  EXPECT_EQ(*net::RunInline(fx.client->Read("/b/g", 0, 100)), "payload");
}

TEST(LocoFsTest, DirRenameMovesSubtreeAndKeepsFiles) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/old", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/old/sub", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/old/sub/f", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Write("/old/sub/f", 0, "x")).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Rename("/old", "/new")).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/old")).code(), ErrCode::kNotFound);
  EXPECT_TRUE(net::RunInline(fx.client->Stat("/new/sub")).ok());
  // Files are keyed by their parent's uuid, which did not change (§3.4.2):
  // no FMS record moved, yet the path-visible name did.
  EXPECT_EQ(*net::RunInline(fx.client->Read("/new/sub/f", 0, 10)), "x");
  auto entries = net::RunInline(fx.client->Readdir("/new/sub"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "f");
}

TEST(LocoFsTest, RenameErrors) {
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    LocoFixture fx(4, cache);
    auto& c = *fx.client;
    ASSERT_TRUE(net::RunInline(c.Mkdir("/a", 0755)).ok());
    ASSERT_TRUE(net::RunInline(c.Mkdir("/b", 0755)).ok());
    ASSERT_TRUE(net::RunInline(c.Mkdir("/ro", 0555)).ok());
    ASSERT_TRUE(net::RunInline(c.Create("/file", 0644)).ok());
    EXPECT_EQ(net::RunInline(c.Rename("/a", "/a/in")).code(), ErrCode::kInvalid);
    EXPECT_EQ(net::RunInline(c.Rename("/missing", "/c")).code(),
              ErrCode::kNotFound);
    // A missing source outranks a file at the destination.
    EXPECT_EQ(net::RunInline(c.Rename("/missing", "/file")).code(),
              ErrCode::kNotFound);
    EXPECT_EQ(net::RunInline(c.Rename("/a", "/b")).code(), ErrCode::kExists);
    EXPECT_EQ(net::RunInline(c.Rename("/file", "/a")).code(), ErrCode::kExists);
    EXPECT_EQ(net::RunInline(c.Rename("/a", "/file")).code(), ErrCode::kExists);
    EXPECT_EQ(net::RunInline(c.Rename("/a", "/nope/a")).code(),
              ErrCode::kNotFound);
    EXPECT_TRUE(net::RunInline(c.Rename("/a", "/a")).ok());
    // A file renamed into a parent the caller cannot write; with the cache
    // on, a lookup under /ro first leases it, so the check runs locally.
    c.SetIdentity(fs::Identity{1000, 1000});
    EXPECT_EQ(net::RunInline(c.Stat("/ro/x")).code(), ErrCode::kNotFound);
    EXPECT_EQ(net::RunInline(c.Rename("/file", "/ro/file")).code(),
              ErrCode::kPermission);
    EXPECT_TRUE(net::RunInline(c.Stat("/file")).ok());
  }
}

// Counts rounds: every CallAsyncMeta or FanOutAsync is one round, however
// many legs it carries.
class RoundCounter final : public net::Channel {
 public:
  explicit RoundCounter(net::Channel& inner) : inner_(inner) {}

  void CallAsync(net::NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(net::RpcResponse)> done) override {
    ++rounds;
    inner_.CallAsync(server, opcode, std::move(payload), std::move(done));
  }
  void CallAsyncMeta(net::NodeId server, std::uint16_t opcode,
                     std::string payload, const net::CallMeta& meta,
                     std::function<void(net::RpcResponse)> done) override {
    ++rounds;
    inner_.CallAsyncMeta(server, opcode, std::move(payload), meta,
                         std::move(done));
  }
  void FanOutAsync(
      std::vector<net::CallLeg> legs, const net::CallMeta& meta,
      std::function<void(std::vector<net::RpcResponse>)> done) override {
    ++rounds;
    inner_.FanOutAsync(std::move(legs), meta, std::move(done));
  }

  int rounds = 0;

 private:
  net::Channel& inner_;
};

TEST(LocoFsTest, WarmListingAndRenameRoundsMatchDesign) {
  // DESIGN.md §5, "rounds (C, warm)": a listing sends its DMS leg and every
  // FMS leg at once; a rename sends its probes at once, then acts; a close
  // sends nothing.
  LocoFixture fx(4);
  RoundCounter counter(fx.transport);
  LocoClient client(counter, fx.config);
  ASSERT_TRUE(net::RunInline(client.Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(client.Mkdir("/d/sub", 0755)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(net::RunInline(client.Create("/d/f" + std::to_string(i), 0644))
                    .ok());  // the first leases /d
  }
  counter.rounds = 0;
  auto entries = net::RunInline(client.Readdir("/d"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 9u);
  EXPECT_EQ(counter.rounds, 1);
  counter.rounds = 0;
  auto plus = net::RunInline(client.ReaddirPlus("/d"));
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus->size(), 9u);
  EXPECT_EQ(counter.rounds, 1);
  counter.rounds = 0;
  ASSERT_TRUE(net::RunInline(client.Close("/d/f1")).ok());  // warm parent
  EXPECT_EQ(counter.rounds, 0);
  counter.rounds = 0;
  ASSERT_TRUE(net::RunInline(client.Rename("/d/sub", "/d/sub2")).ok());
  EXPECT_EQ(counter.rounds, 2);
  counter.rounds = 0;
  ASSERT_TRUE(net::RunInline(client.Rename("/d/f0", "/d/g0")).ok());
  EXPECT_EQ(counter.rounds, 3);
  counter.rounds = 0;
  client.DropCache();
  ASSERT_TRUE(net::RunInline(client.Close("/d/g0")).ok());  // cold parent
  EXPECT_EQ(counter.rounds, 0);
}

TEST(LocoFsTest, PermissionDeniedPropagates) {
  LocoFixture fx;
  fx.client->SetIdentity(fs::Identity{1000, 1000});
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/mine", 0700)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/mine/secret", 0600)).ok());
  fx.client->SetIdentity(fs::Identity{2000, 2000});
  fx.client->DropCache();
  EXPECT_EQ(net::RunInline(fx.client->Stat("/mine/secret")).code(),
            ErrCode::kPermission);
  EXPECT_EQ(net::RunInline(fx.client->Create("/mine/other", 0644)).code(),
            ErrCode::kPermission);
  EXPECT_EQ(net::RunInline(fx.client->Readdir("/mine")).code(),
            ErrCode::kPermission);
}

TEST(LocoFsTest, CoupledModeBehavesIdentically) {
  LocoFixture fx(4, true, /*decoupled=*/false);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/f", 0640)).ok());
  fx.clock = 4;
  ASSERT_TRUE(net::RunInline(fx.client->Chmod("/d/f", 0600)).ok());
  auto st = net::RunInline(fx.client->Stat("/d/f"));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0600u);
  EXPECT_EQ(st->ctime, 4u);
  ASSERT_TRUE(net::RunInline(fx.client->Write("/d/f", 0, "abc")).ok());
  EXPECT_EQ(net::RunInline(fx.client->Stat("/d/f"))->size, 3u);
  ASSERT_TRUE(net::RunInline(fx.client->Rename("/d/f", "/d/g")).ok());
  EXPECT_EQ(*net::RunInline(fx.client->Read("/d/g", 0, 10)), "abc");
  ASSERT_TRUE(net::RunInline(fx.client->Unlink("/d/g")).ok());
}

TEST(LocoFsTest, OpenCloseAndAccess) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Create("/f", 0640)).ok());
  auto opened = net::RunInline(fx.client->Open("/f"));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->mode, 0640u);
  EXPECT_TRUE(net::RunInline(fx.client->Close("/f")).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Access("/f", fs::kModeRead)).ok());
  fx.client->SetIdentity(fs::Identity{2000, 2000});
  EXPECT_EQ(net::RunInline(fx.client->Access("/f", fs::kModeWrite)).code(),
            ErrCode::kPermission);
}

TEST(LocoFsTest, UtimensOnFileAndDir) {
  LocoFixture fx;
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/f", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Utimens("/d/f", 123, 456)).ok());
  auto st = net::RunInline(fx.client->Stat("/d/f"));
  EXPECT_EQ(st->mtime, 123u);
  EXPECT_EQ(st->atime, 456u);
  ASSERT_TRUE(net::RunInline(fx.client->Utimens("/d", 77, 88)).ok());
  auto sd = net::RunInline(fx.client->Stat("/d"));
  EXPECT_EQ(sd->mtime, 77u);
  EXPECT_EQ(sd->atime, 88u);
}

TEST(LocoFsTest, FilesDistributeAcrossFmsServers) {
  LocoFixture fx(4);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net::RunInline(
        fx.client->Create("/d/file" + std::to_string(i), 0644)).ok());
  }
  int populated = 0;
  for (const auto& server : fx.fms) populated += server->FileCount() > 0;
  EXPECT_EQ(populated, 4);
  std::size_t total = 0;
  for (const auto& server : fx.fms) total += server->FileCount();
  EXPECT_EQ(total, 200u);
}

TEST(LocoFsTest, CreateShadowedBySubdirRejectedWithWarmLease) {
  // Regression: the cache-hit path of LookupDir used to skip the shadow
  // check entirely, so a warm lease on /d let Create("/d/sub") overlay an
  // existing subdirectory.  The lease now carries the parent's subdir names
  // and enforces the check locally, without spending a DMS RPC.
  LocoFixture fx(4, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d/sub", 0755)).ok());
  // Cold: the DMS rejects the shadowed create.
  EXPECT_EQ(net::RunInline(fx.client->Create("/d/sub", 0644)).code(),
            ErrCode::kExists);
  // Warm the lease on /d with a successful create...
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/ok", 0644)).ok());
  const std::uint64_t dms_before = fx.transport.CallCount(kDms);
  const std::uint64_t hits_before = fx.client->cache_hits();
  // ...then the shadowed create must still be rejected, from the lease alone.
  EXPECT_EQ(net::RunInline(fx.client->Create("/d/sub", 0644)).code(),
            ErrCode::kExists);
  EXPECT_EQ(fx.transport.CallCount(kDms), dms_before);
  EXPECT_EQ(fx.client->cache_hits(), hits_before + 1);
}

TEST(LocoFsTest, LeaseShadowSetTracksMkdirAndRmdir) {
  // Directories made or removed *after* the lease grant must still shadow
  // (or stop shadowing) file creates served from the cache.
  LocoFixture fx(2, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/a", 0644)).ok());  // lease
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d/sub", 0755)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Create("/d/sub", 0644)).code(),
            ErrCode::kExists);
  ASSERT_TRUE(net::RunInline(fx.client->Rmdir("/d/sub")).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Create("/d/sub", 0644)).ok());
}

TEST(LocoFsTest, RenameMovesShadowBetweenCachedParents) {
  LocoFixture fx(2, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/src", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/dst", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/src/d", 0755)).ok());
  // Warm leases on both parents.
  ASSERT_TRUE(net::RunInline(fx.client->Create("/src/x", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/dst/y", 0644)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Rename("/src/d", "/dst/d2")).ok());
  // The old name no longer shadows; the new one does, cache-served.
  EXPECT_TRUE(net::RunInline(fx.client->Create("/src/d", 0644)).ok());
  EXPECT_EQ(net::RunInline(fx.client->Create("/dst/d2", 0644)).code(),
            ErrCode::kExists);
}

TEST(LocoFsTest, DirectoryOpsFallBackToDmsWhenFmsUnavailable) {
  // Chmod/Chown/Access/Utimens on a directory must reach the DMS even when
  // every FMS is down (the file-first probe returns kUnavailable, not
  // kNotFound), matching Stat's fallback policy.
  LocoFixture fx(2, /*cache=*/false);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  for (std::size_t i = 0; i < fx.fms.size(); ++i) {
    fx.transport.Register(kFmsBase + static_cast<net::NodeId>(i), nullptr);
  }
  fx.clock = 7;
  EXPECT_TRUE(net::RunInline(fx.client->Chmod("/d", 0700)).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Chown("/d", 1000, 42)).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Access("/d", fs::kModeRead)).ok());
  EXPECT_TRUE(net::RunInline(fx.client->Utimens("/d", 11, 12)).ok());
  auto st = net::RunInline(fx.client->Stat("/d"));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->mode, 0700u);
  EXPECT_EQ(st->gid, 42u);
  EXPECT_EQ(st->mtime, 11u);
  // A path unknown to the DMS is genuinely unresolvable while the FMS ring
  // is down: report the outage rather than a confident kNotFound.
  EXPECT_EQ(net::RunInline(fx.client->Chmod("/ghost", 0700)).code(),
            ErrCode::kUnavailable);
  EXPECT_EQ(net::RunInline(fx.client->Utimens("/ghost", 1, 2)).code(),
            ErrCode::kUnavailable);
}

TEST(LocoFsTest, CacheCountersFlowIntoMetricsRegistry) {
  auto& reg = common::MetricsRegistry::Default();
  const std::uint64_t hits0 = reg.CounterValue("client.cache.hits");
  const std::uint64_t misses0 = reg.CounterValue("client.cache.misses");
  const std::uint64_t inval0 = reg.CounterValue("client.cache.invalidations");
  LocoFixture fx(2, /*cache=*/true);
  ASSERT_TRUE(net::RunInline(fx.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/a", 0644)).ok());  // miss
  ASSERT_TRUE(net::RunInline(fx.client->Create("/d/b", 0644)).ok());  // hit
  ASSERT_TRUE(net::RunInline(fx.client->Chmod("/d", 0700)).ok());  // invalidate
  EXPECT_GE(reg.CounterValue("client.cache.hits") - hits0, 1u);
  EXPECT_GE(reg.CounterValue("client.cache.misses") - misses0, 1u);
  EXPECT_GE(reg.CounterValue("client.cache.invalidations") - inval0, 1u);
}

}  // namespace
}  // namespace loco::core
