// Sharded-DMS placement and the cross-shard rename two-phase protocol,
// tested at the handler level with two in-process shards (docs/SHARDING.md).
#include "core/shard.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/dms.h"
#include "core/proto.h"
#include "fs/wire.h"

namespace loco::core {
namespace {

TEST(ShardKeyTest, TopLevelComponent) {
  EXPECT_EQ(ShardKey("/"), "/");
  EXPECT_EQ(ShardKey("/a"), "/a");
  EXPECT_EQ(ShardKey("/a/b/c"), "/a");
  EXPECT_EQ(ShardKey("/long-name/x"), "/long-name");
}

TEST(ShardMapTest, RootPinnedToShardZero) {
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(ShardMap(shards).ShardOf("/"), 0u) << shards;
  }
}

TEST(ShardMapTest, SingleShardOwnsEverything) {
  const ShardMap map(1);
  EXPECT_EQ(map.ShardOf("/"), 0u);
  EXPECT_EQ(map.ShardOf("/a/b"), 0u);
  EXPECT_EQ(map.ShardOf("/zzz"), 0u);
}

TEST(ShardMapTest, SubtreeAffinity) {
  // Everything under one top-level directory lands on one shard: only
  // renames across top-level subtrees ever need the 2PC.
  const ShardMap map(4);
  for (int i = 0; i < 32; ++i) {
    const std::string top = "/t" + std::to_string(i);
    const std::size_t shard = map.ShardOf(top);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(map.ShardOf(top + "/child"), shard);
    EXPECT_EQ(map.ShardOf(top + "/a/b/c/d"), shard);
  }
}

TEST(ShardMapTest, DeterministicAndSpreading) {
  const ShardMap a(4), b(4);
  std::set<std::size_t> used;
  for (int i = 0; i < 64; ++i) {
    const std::string top = "/dir" + std::to_string(i);
    EXPECT_EQ(a.ShardOf(top), b.ShardOf(top));
    used.insert(a.ShardOf(top));
  }
  // 64 names over 4 shards must touch more than one shard.
  EXPECT_GT(used.size(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-shard rename 2PC: two DirectoryMetadataServer instances stand in for
// the source and destination shards; the test plays the client's part by
// issuing the raw opcodes, including the crash shapes fsck and the daemon
// intent GC must resolve.

const fs::Identity kRoot{0, 0};
const fs::Identity kAlice{1000, 1000};

class RenameTwoPhaseTest : public ::testing::Test {
 protected:
  RenameTwoPhaseTest() : src_(SrcOptions()), dst_(DstOptions()) {}

  static DirectoryMetadataServer::Options SrcOptions() {
    return DirectoryMetadataServer::Options{};  // sid 0xfffe (shard 0)
  }
  static DirectoryMetadataServer::Options DstOptions() {
    DirectoryMetadataServer::Options o;
    o.sid = 0xfffd;  // shard 1
    return o;
  }

  net::RpcResponse Mkdir(DirectoryMetadataServer* s, const std::string& path) {
    return s->Handle(proto::kDmsMkdir,
                     fs::Pack(path, 0755u, kAlice, std::uint64_t{1}));
  }
  Result<fs::Attr> Stat(DirectoryMetadataServer* s, const std::string& path) {
    auto resp = s->Handle(proto::kDmsStat, fs::Pack(path, kRoot));
    if (!resp.ok()) return ErrStatus(resp.code);
    fs::Attr attr;
    if (!fs::Unpack(resp.payload, attr)) return ErrStatus(ErrCode::kCorruption);
    return attr;
  }
  std::vector<fs::DirEntry> Readdir(DirectoryMetadataServer* s,
                                    const std::string& path) {
    auto resp = s->Handle(proto::kDmsReaddir, fs::Pack(path, kRoot));
    fs::Attr attr;
    std::vector<fs::DirEntry> entries;
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(fs::Unpack(resp.payload, attr, entries));
    return entries;
  }
  bool Lists(DirectoryMetadataServer* s, const std::string& dir,
             const std::string& name) {
    for (const auto& e : Readdir(s, dir)) {
      if (e.name == name) return true;
    }
    return false;
  }

  net::RpcResponse Prepare(std::uint64_t txid, const std::string& from,
                           const std::string& to) {
    return src_.Handle(proto::kDmsRenamePrepare,
                       fs::Pack(from, to, txid, kAlice));
  }
  net::RpcResponse Commit(std::uint64_t txid, const std::string& to,
                          const std::vector<std::string>& entries) {
    return dst_.Handle(proto::kDmsRenameCommit,
                       fs::Pack(txid, to, kAlice, entries));
  }

  // Raw d-inode presence via the fsck scan opcode: unlike Stat this does not
  // walk ancestors, so it can observe a partially-installed child whose
  // subtree root never landed.
  bool HasDir(DirectoryMetadataServer* s, const std::string& path) {
    auto resp = s->Handle(proto::kDmsScanDirs, {});
    EXPECT_TRUE(resp.ok());
    std::vector<std::string> records;
    EXPECT_TRUE(fs::Unpack(resp.payload, records));
    for (const std::string& r : records) {
      std::string p;
      fs::Uuid uuid;
      EXPECT_TRUE(fs::Unpack(r, p, uuid));
      if (p == path) return true;
    }
    return false;
  }

  // Count non-tombstone intent records on a shard.
  std::size_t LiveIntents(DirectoryMetadataServer* s) {
    std::size_t n = 0;
    for (const auto& p : s->PendingRenames()) {
      if (p.kind <= 1) ++n;
    }
    return n;
  }

  DirectoryMetadataServer src_;
  DirectoryMetadataServer dst_;
};

TEST_F(RenameTwoPhaseTest, FullTransferMovesSubtreeAndClearsIntents) {
  ASSERT_TRUE(Mkdir(&src_, "/a").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s/k").ok());
  ASSERT_TRUE(Mkdir(&dst_, "/b").ok());
  const fs::Uuid moved = Stat(&src_, "/a/s")->uuid;

  auto prep = Prepare(7, "/a/s", "/b/s");
  ASSERT_TRUE(prep.ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(fs::Unpack(prep.payload, entries));
  EXPECT_EQ(entries.size(), 2u);  // the root ("") and "k"
  EXPECT_EQ(LiveIntents(&src_), 1u);

  ASSERT_TRUE(Commit(7, "/b/s", entries).ok());
  EXPECT_TRUE(Stat(&dst_, "/b/s").ok());
  EXPECT_TRUE(Stat(&dst_, "/b/s/k").ok());
  EXPECT_EQ(Stat(&dst_, "/b/s")->uuid, moved);  // uuid rides along
  EXPECT_TRUE(Lists(&dst_, "/b", "s"));
  EXPECT_EQ(LiveIntents(&dst_), 0u);  // marker dropped at commit end

  ASSERT_TRUE(src_.Handle(proto::kDmsRenameFinish, fs::Pack(std::uint64_t{7}))
                  .ok());
  EXPECT_EQ(Stat(&src_, "/a/s").code(), ErrCode::kNotFound);
  EXPECT_EQ(Stat(&src_, "/a/s/k").code(), ErrCode::kNotFound);
  EXPECT_FALSE(Lists(&src_, "/a", "s"));
  EXPECT_EQ(LiveIntents(&src_), 0u);
  // Finish is idempotent (client retries).
  EXPECT_TRUE(src_.Handle(proto::kDmsRenameFinish, fs::Pack(std::uint64_t{7}))
                  .ok());
}

TEST_F(RenameTwoPhaseTest, PreparedSubtreeIsLockedAgainstMutation) {
  ASSERT_TRUE(Mkdir(&src_, "/a").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s").ok());
  ASSERT_TRUE(Prepare(9, "/a/s", "/b/s").ok());

  // Inside the pending transfer: blocked with kStale.
  EXPECT_EQ(Mkdir(&src_, "/a/s/new").code, ErrCode::kStale);
  EXPECT_EQ(src_.Handle(proto::kDmsRmdir,
                        fs::Pack(std::string("/a/s"), kAlice, std::uint8_t{1}))
                .code,
            ErrCode::kStale);
  // Outside it: unaffected.
  EXPECT_TRUE(Mkdir(&src_, "/a/other").ok());
  // A second transfer overlapping the locked subtree: blocked.
  EXPECT_EQ(Prepare(10, "/a/s", "/c/s").code, ErrCode::kStale);
  // A retry of the SAME prepare re-packages without a duplicate intent.
  EXPECT_TRUE(Prepare(9, "/a/s", "/b/s").ok());
  EXPECT_EQ(LiveIntents(&src_), 1u);

  // Abort unlocks and keeps the source intact.
  ASSERT_TRUE(src_.Handle(proto::kDmsRenameAbort, fs::Pack(std::uint64_t{9}))
                  .ok());
  EXPECT_EQ(LiveIntents(&src_), 0u);
  EXPECT_TRUE(Stat(&src_, "/a/s").ok());
  EXPECT_TRUE(Mkdir(&src_, "/a/s/new").ok());
}

TEST_F(RenameTwoPhaseTest, TombstoneFencesLateCommit) {
  ASSERT_TRUE(Mkdir(&src_, "/a").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s").ok());
  ASSERT_TRUE(Mkdir(&dst_, "/b").ok());
  auto prep = Prepare(11, "/a/s", "/b/s");
  ASSERT_TRUE(prep.ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(fs::Unpack(prep.payload, entries));

  // Rollback fences the destination before the commit frame arrives (the
  // client timed out; the frame was still queued).
  ASSERT_TRUE(dst_.Handle(proto::kDmsAbortIncoming,
                          fs::Pack(std::uint64_t{11}, std::uint8_t{1}))
                  .ok());
  EXPECT_EQ(Commit(11, "/b/s", entries).code, ErrCode::kStale);
  EXPECT_EQ(Stat(&dst_, "/b/s").code(), ErrCode::kNotFound);
  EXPECT_FALSE(Lists(&dst_, "/b", "s"));

  // Source rolls back cleanly.
  ASSERT_TRUE(src_.Handle(proto::kDmsRenameAbort, fs::Pack(std::uint64_t{11}))
                  .ok());
  EXPECT_TRUE(Stat(&src_, "/a/s").ok());
}

TEST_F(RenameTwoPhaseTest, AbortIncomingPurgesPartialInstallOnly) {
  ASSERT_TRUE(Mkdir(&src_, "/a").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s/k").ok());
  ASSERT_TRUE(Mkdir(&dst_, "/b").ok());
  auto prep = Prepare(13, "/a/s", "/b/s");
  ASSERT_TRUE(prep.ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(fs::Unpack(prep.payload, entries));

  // A commit that dies mid-install: the child entries decode, then a
  // malformed tail entry aborts the handler AFTER the marker and the child
  // were written but BEFORE the subtree root (the commit point).
  std::vector<std::string> partial;
  for (const std::string& e : entries) {
    std::string rel, inode;
    std::vector<std::string> subdir_names;
    ASSERT_TRUE(fs::Unpack(e, rel, inode, subdir_names));
    if (!rel.empty()) partial.push_back(e);  // children only, no root
  }
  partial.push_back("not-a-valid-entry");
  EXPECT_FALSE(Commit(13, "/b/s", partial).ok());
  EXPECT_TRUE(HasDir(&dst_, "/b/s/k"));   // partial child landed
  EXPECT_FALSE(HasDir(&dst_, "/b/s"));    // the commit point did not
  EXPECT_EQ(LiveIntents(&dst_), 1u);      // marker stays

  // Recovery purges the partial install (root absent => not committed).
  ASSERT_TRUE(dst_.Handle(proto::kDmsAbortIncoming,
                          fs::Pack(std::uint64_t{13}, std::uint8_t{1}))
                  .ok());
  EXPECT_FALSE(HasDir(&dst_, "/b/s/k"));
  EXPECT_EQ(LiveIntents(&dst_), 0u);

  // After a COMPLETED transfer the same call must NOT delete the subtree:
  // the purge guard keys on the commit point.
  ASSERT_TRUE(src_.Handle(proto::kDmsRenameAbort, fs::Pack(std::uint64_t{13}))
                  .ok());
  auto prep2 = Prepare(14, "/a/s", "/b/s2");
  ASSERT_TRUE(prep2.ok());
  std::vector<std::string> entries2;
  ASSERT_TRUE(fs::Unpack(prep2.payload, entries2));
  ASSERT_TRUE(Commit(14, "/b/s2", entries2).ok());
  ASSERT_TRUE(dst_.Handle(proto::kDmsAbortIncoming,
                          fs::Pack(std::uint64_t{14}, std::uint8_t{1}))
                  .ok());
  EXPECT_TRUE(Stat(&dst_, "/b/s2").ok());
  EXPECT_TRUE(Stat(&dst_, "/b/s2/k").ok());
}

TEST_F(RenameTwoPhaseTest, ScanIntentsExposesPendingTransfers) {
  ASSERT_TRUE(Mkdir(&src_, "/a").ok());
  ASSERT_TRUE(Mkdir(&src_, "/a/s").ok());
  ASSERT_TRUE(Prepare(21, "/a/s", "/b/s").ok());

  auto resp = src_.Handle(proto::kDmsScanIntents, {});
  ASSERT_TRUE(resp.ok());
  std::vector<std::string> records;
  ASSERT_TRUE(fs::Unpack(resp.payload, records));
  bool found = false;
  for (const std::string& r : records) {
    std::uint8_t kind = 0;
    std::uint64_t txid = 0;
    std::string from, to;
    ASSERT_TRUE(fs::Unpack(r, kind, txid, from, to));
    if (kind == 0 && txid == 21) {
      EXPECT_EQ(from, "/a/s");
      EXPECT_EQ(to, "/b/s");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace loco::core
