// Direct handler-level tests of the Directory Metadata Server: wire-level
// behaviour, error paths, and the internal consistency of the d-inode and
// dirent stores that client-level tests can't observe.
#include "core/dms.h"

#include <gtest/gtest.h>

#include "core/proto.h"
#include "fs/wire.h"

namespace loco::core {
namespace {

const fs::Identity kAlice{1000, 1000};
const fs::Identity kBob{2000, 2000};
const fs::Identity kRoot{0, 0};

class DmsTest : public ::testing::Test {
 protected:
  net::RpcResponse Mkdir(const std::string& path, std::uint32_t mode = 0755,
                         fs::Identity who = kAlice, std::uint64_t ts = 1) {
    return dms_.Handle(proto::kDmsMkdir, fs::Pack(path, mode, who, ts));
  }
  net::RpcResponse Rmdir(const std::string& path, fs::Identity who = kAlice) {
    return dms_.Handle(proto::kDmsRmdir,
                       fs::Pack(path, who, std::uint8_t{1}));
  }
  Result<fs::Attr> Stat(const std::string& path, fs::Identity who = kAlice) {
    auto resp = dms_.Handle(proto::kDmsStat, fs::Pack(path, who));
    if (!resp.ok()) return ErrStatus(resp.code);
    fs::Attr attr;
    if (!fs::Unpack(resp.payload, attr)) return ErrStatus(ErrCode::kCorruption);
    return attr;
  }
  std::vector<fs::DirEntry> Readdir(const std::string& path) {
    auto resp = dms_.Handle(proto::kDmsReaddir, fs::Pack(path, kRoot));
    fs::Attr attr;
    std::vector<fs::DirEntry> entries;
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(fs::Unpack(resp.payload, attr, entries));
    return entries;
  }

  DirectoryMetadataServer dms_;
};

TEST_F(DmsTest, RootPreexists) {
  auto root = Stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->is_dir);
  EXPECT_EQ(root->uuid, fs::kRootUuid);
  EXPECT_EQ(dms_.DirCount(), 1u);
}

TEST_F(DmsTest, MkdirAssignsDistinctUuids) {
  ASSERT_TRUE(Mkdir("/a").ok());
  ASSERT_TRUE(Mkdir("/b").ok());
  const fs::Uuid ua = Stat("/a")->uuid;
  const fs::Uuid ub = Stat("/b")->uuid;
  EXPECT_FALSE(ua == ub);
  EXPECT_FALSE(ua == fs::kRootUuid);
}

TEST_F(DmsTest, LookupShadowCheck) {
  ASSERT_TRUE(Mkdir("/p").ok());
  ASSERT_TRUE(Mkdir("/p/sub").ok());
  // Lookup of /p rejecting the name "sub" must fail kExists.
  auto resp = dms_.Handle(
      proto::kDmsLookup,
      fs::Pack(std::string("/p"), kAlice, std::uint32_t{0}, std::string("sub")));
  EXPECT_EQ(resp.code, ErrCode::kExists);
  // A free name passes.
  resp = dms_.Handle(proto::kDmsLookup,
                     fs::Pack(std::string("/p"), kAlice, std::uint32_t{0},
                              std::string("free")));
  EXPECT_TRUE(resp.ok());
}

TEST_F(DmsTest, LookupAppliesWantBits) {
  ASSERT_TRUE(Mkdir("/p", 0555).ok());  // no write for anyone but root
  auto resp = dms_.Handle(
      proto::kDmsLookup,
      fs::Pack(std::string("/p"), kBob,
               std::uint32_t{fs::kModeWrite | fs::kModeExec}, std::string()));
  EXPECT_EQ(resp.code, ErrCode::kPermission);
  resp = dms_.Handle(proto::kDmsLookup,
                     fs::Pack(std::string("/p"), kBob,
                              std::uint32_t{fs::kModeExec}, std::string()));
  EXPECT_TRUE(resp.ok());
}

TEST_F(DmsTest, AncestorWalkEnforcedPerLevel) {
  ASSERT_TRUE(Mkdir("/a", 0700, kAlice).ok());
  ASSERT_TRUE(Mkdir("/a/b", 0777, kAlice).ok());
  // Bob cannot even stat /a/b: /a denies execute.
  EXPECT_EQ(Stat("/a/b", kBob).code(), ErrCode::kPermission);
  EXPECT_TRUE(Stat("/a/b", kAlice).ok());
}

TEST_F(DmsTest, RmdirProtocolAttestationRequired) {
  ASSERT_TRUE(Mkdir("/d").ok());
  // files_checked = 0: the client did not run the FMS emptiness fan-out.
  auto resp = dms_.Handle(proto::kDmsRmdir,
                          fs::Pack(std::string("/d"), kAlice, std::uint8_t{0}));
  EXPECT_EQ(resp.code, ErrCode::kInvalid);
  EXPECT_TRUE(Stat("/d").ok());  // untouched
  EXPECT_TRUE(Rmdir("/d").ok());
}

TEST_F(DmsTest, RmdirRefusesNonEmpty) {
  ASSERT_TRUE(Mkdir("/d").ok());
  ASSERT_TRUE(Mkdir("/d/sub").ok());
  EXPECT_EQ(Rmdir("/d").code, ErrCode::kNotEmpty);
  EXPECT_TRUE(Rmdir("/d/sub").ok());
  EXPECT_TRUE(Rmdir("/d").ok());
  EXPECT_EQ(dms_.DirCount(), 1u);
}

TEST_F(DmsTest, DirentListTracksChildren) {
  ASSERT_TRUE(Mkdir("/d").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Mkdir("/d/s" + std::to_string(i)).ok());
  }
  EXPECT_EQ(Readdir("/d").size(), 5u);
  ASSERT_TRUE(Rmdir("/d/s2").ok());
  const auto entries = Readdir("/d");
  ASSERT_EQ(entries.size(), 4u);
  for (const auto& e : entries) EXPECT_NE(e.name, "s2");
}

TEST_F(DmsTest, ChmodPatchesWithoutRewrite) {
  ASSERT_TRUE(Mkdir("/d", 0755, kAlice, 10).ok());
  const kv::KvStats before = dms_.dir_kv().stats();
  auto resp = dms_.Handle(proto::kDmsChmod,
                          fs::Pack(std::string("/d"), kAlice, 0700u,
                                   std::uint64_t{20}));
  ASSERT_TRUE(resp.ok());
  const kv::KvStats d = dms_.dir_kv().stats() - before;
  EXPECT_EQ(d.patches, 1u);
  EXPECT_EQ(d.puts, 0u);  // fixed-offset patch, not a record rewrite
  EXPECT_EQ(d.bytes_written, 12u);
  auto attr = Stat("/d");
  EXPECT_EQ(attr->mode, 0700u);
  EXPECT_EQ(attr->ctime, 20u);
  EXPECT_EQ(attr->mtime, 10u);  // untouched
}

TEST_F(DmsTest, RenameMovesWholeSubtreeAndDirents) {
  ASSERT_TRUE(Mkdir("/a").ok());
  ASSERT_TRUE(Mkdir("/a/x").ok());
  ASSERT_TRUE(Mkdir("/a/x/y").ok());
  ASSERT_TRUE(Mkdir("/b").ok());
  const fs::Uuid uuid_x = Stat("/a/x")->uuid;

  auto resp = dms_.Handle(proto::kDmsRename,
                          fs::Pack(std::string("/a"), std::string("/b/a2"),
                                   kAlice));
  ASSERT_TRUE(resp.ok());
  std::uint64_t moved = 0;
  ASSERT_TRUE(fs::Unpack(resp.payload, moved));
  EXPECT_EQ(moved, 3u);  // /a, /a/x, /a/x/y

  EXPECT_EQ(Stat("/a").code(), ErrCode::kNotFound);
  EXPECT_TRUE(Stat("/b/a2/x/y").ok());
  // UUIDs are preserved by the range move (children stay keyed by them).
  EXPECT_EQ(Stat("/b/a2/x")->uuid, uuid_x);
  // Dirent lists on both parents updated.
  bool root_has_a = false;
  for (const auto& e : Readdir("/")) root_has_a |= (e.name == "a");
  EXPECT_FALSE(root_has_a);
  const auto b_entries = Readdir("/b");
  ASSERT_EQ(b_entries.size(), 1u);
  EXPECT_EQ(b_entries[0].name, "a2");
}

TEST_F(DmsTest, RenameSameParentKeepsSiblings) {
  ASSERT_TRUE(Mkdir("/p").ok());
  ASSERT_TRUE(Mkdir("/p/one").ok());
  ASSERT_TRUE(Mkdir("/p/two").ok());
  ASSERT_TRUE(dms_.Handle(proto::kDmsRename,
                          fs::Pack(std::string("/p/one"),
                                   std::string("/p/uno"), kAlice))
                  .ok());
  const auto entries = Readdir("/p");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "two");  // name order
  EXPECT_EQ(entries[1].name, "uno");
}

TEST_F(DmsTest, ReaddirAndLookupReplyInNameOrder) {
  ASSERT_TRUE(Mkdir("/p").ok());
  for (const char* name : {"m", "b", "z", "a", "k"}) {
    ASSERT_TRUE(Mkdir(std::string("/p/") + name).ok());
  }
  std::vector<std::string> listed;
  for (const auto& e : Readdir("/p")) listed.push_back(e.name);
  const std::vector<std::string> sorted = {"a", "b", "k", "m", "z"};
  EXPECT_EQ(listed, sorted);
  auto resp = dms_.Handle(proto::kDmsLookup,
                          fs::Pack(std::string("/p"), kAlice, std::uint32_t{0},
                                   std::string()));
  ASSERT_TRUE(resp.ok());
  fs::Attr attr;
  std::vector<std::string> names;
  ASSERT_TRUE(fs::Unpack(resp.payload, attr, names));
  EXPECT_EQ(names, sorted);
}

TEST_F(DmsTest, RenamePrefixConfusionAvoided) {
  // "/ab" must not be treated as inside "/a".
  ASSERT_TRUE(Mkdir("/a").ok());
  ASSERT_TRUE(Mkdir("/ab").ok());
  ASSERT_TRUE(Mkdir("/ab/keep").ok());
  ASSERT_TRUE(dms_.Handle(proto::kDmsRename,
                          fs::Pack(std::string("/a"), std::string("/z"),
                                   kAlice))
                  .ok());
  EXPECT_TRUE(Stat("/ab/keep").ok());
  EXPECT_TRUE(Stat("/z").ok());
}

TEST_F(DmsTest, UtimensAndChownPatchCorrectFields) {
  ASSERT_TRUE(Mkdir("/d", 0755, kAlice, 5).ok());
  ASSERT_TRUE(dms_.Handle(proto::kDmsUtimens,
                          fs::Pack(std::string("/d"), kAlice,
                                   std::uint64_t{100}, std::uint64_t{200}))
                  .ok());
  auto attr = Stat("/d");
  EXPECT_EQ(attr->mtime, 100u);
  EXPECT_EQ(attr->atime, 200u);
  EXPECT_EQ(attr->ctime, 5u);

  ASSERT_TRUE(dms_.Handle(proto::kDmsChown,
                          fs::Pack(std::string("/d"), kRoot, 7u, 8u,
                                   std::uint64_t{300}))
                  .ok());
  attr = Stat("/d");
  EXPECT_EQ(attr->uid, 7u);
  EXPECT_EQ(attr->gid, 8u);
  EXPECT_EQ(attr->ctime, 300u);
  EXPECT_EQ(attr->mode, 0755u);
}

TEST_F(DmsTest, AccessOpcode) {
  ASSERT_TRUE(Mkdir("/d", 0750, kAlice).ok());
  EXPECT_TRUE(dms_.Handle(proto::kDmsAccess,
                          fs::Pack(std::string("/d"), kAlice,
                                   std::uint32_t{fs::kModeRead | fs::kModeWrite}))
                  .ok());
  EXPECT_EQ(dms_.Handle(proto::kDmsAccess,
                        fs::Pack(std::string("/d"), kBob,
                                 std::uint32_t{fs::kModeRead}))
                .code,
            ErrCode::kPermission);
}

TEST_F(DmsTest, InvalidPathsRejected) {
  for (const char* bad : {"", "a", "/a/", "/a//b", "/.", "/a/../b"}) {
    EXPECT_EQ(Mkdir(bad).code, ErrCode::kInvalid) << bad;
  }
  EXPECT_EQ(Mkdir("/").code, ErrCode::kInvalid);
  EXPECT_EQ(Rmdir("/").code, ErrCode::kInvalid);
}

TEST_F(DmsTest, HashBackendBehavesIdentically) {
  DirectoryMetadataServer::Options options;
  options.backend = kv::KvBackend::kHash;
  DirectoryMetadataServer hash_dms(options);
  ASSERT_TRUE(hash_dms.Handle(proto::kDmsMkdir,
                              fs::Pack(std::string("/a"), 0755u, kAlice,
                                       std::uint64_t{1}))
                  .ok());
  ASSERT_TRUE(hash_dms.Handle(proto::kDmsMkdir,
                              fs::Pack(std::string("/a/b"), 0755u, kAlice,
                                       std::uint64_t{2}))
                  .ok());
  auto resp = hash_dms.Handle(proto::kDmsRename,
                              fs::Pack(std::string("/a"), std::string("/c"),
                                       kAlice));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(hash_dms.Handle(proto::kDmsStat,
                              fs::Pack(std::string("/c/b"), kAlice))
                  .ok());
}

}  // namespace
}  // namespace loco::core
