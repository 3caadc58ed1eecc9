#include "core/layout.h"

#include <gtest/gtest.h>

#include <memory>

#include "fs/wire.h"
#include "kvstore/striped_kv.h"

namespace loco::core {
namespace {

// A dirent store as the DMS and FMS build it: B+-tree stripes routed by the
// directory uuid.
std::unique_ptr<kv::Kv> DirentStore() {
  return std::move(kv::MakeStripedKv(kv::KvBackend::kBTree, {}, 8,
                                     kDirentRouteBytes))
      .value();
}

TEST(LayoutTest, DirInodeRoundTrip) {
  fs::Attr attr;
  attr.ctime = 100;
  attr.mode = 0711;
  attr.uid = 5;
  attr.gid = 6;
  attr.uuid = fs::Uuid::Make(3, 77);
  attr.mtime = 200;
  attr.atime = 300;
  const std::string v = DirInodeLayout::Make(attr);
  EXPECT_EQ(v.size(), DirInodeLayout::kSize);
  const fs::Attr out = DirInodeLayout::Parse(v);
  EXPECT_EQ(out.ctime, 100u);
  EXPECT_EQ(out.mode, 0711u);
  EXPECT_EQ(out.uid, 5u);
  EXPECT_EQ(out.gid, 6u);
  EXPECT_EQ(out.uuid, attr.uuid);
  EXPECT_EQ(out.mtime, 200u);
  EXPECT_EQ(out.atime, 300u);
  EXPECT_TRUE(out.is_dir);
}

TEST(LayoutTest, DirInodeFieldPatchAtFixedOffset) {
  fs::Attr attr;
  attr.mode = 0755;
  std::string v = DirInodeLayout::Make(attr);
  common::StoreAt<std::uint32_t>(&v, DirInodeLayout::kMode, 0700);
  EXPECT_EQ(DirInodeLayout::Parse(v).mode, 0700u);
}

TEST(LayoutTest, FilePartsRoundTrip) {
  const std::string access = AccessPartLayout::Make(11, 0640, 1000, 1001);
  const std::string content =
      ContentPartLayout::Make(22, 33, 4096, 512, fs::Uuid::Make(2, 9));
  EXPECT_EQ(access.size(), AccessPartLayout::kSize);
  EXPECT_EQ(content.size(), ContentPartLayout::kSize);
  const fs::Attr attr = ParseFileParts(access, content);
  EXPECT_EQ(attr.ctime, 11u);
  EXPECT_EQ(attr.mode, 0640u);
  EXPECT_EQ(attr.uid, 1000u);
  EXPECT_EQ(attr.gid, 1001u);
  EXPECT_EQ(attr.mtime, 22u);
  EXPECT_EQ(attr.atime, 33u);
  EXPECT_EQ(attr.size, 4096u);
  EXPECT_EQ(attr.block_size, 512u);
  EXPECT_EQ(attr.uuid, fs::Uuid::Make(2, 9));
  EXPECT_FALSE(attr.is_dir);
}

TEST(LayoutTest, FixedPartsAreSmall) {
  // The decoupled design rests on values being tens of bytes (§3.3.1).
  EXPECT_LE(AccessPartLayout::kSize, 32u);
  EXPECT_LE(ContentPartLayout::kSize, 48u);
  EXPECT_LE(DirInodeLayout::kSize, 64u);
}

TEST(LayoutTest, CoupledInodeRoundTrip) {
  CoupledInode inode;
  inode.attr.ctime = 1;
  inode.attr.mode = 0644;
  inode.attr.size = 8192;
  inode.attr.block_size = 4096;
  inode.attr.uuid = fs::Uuid::Make(4, 44);
  inode.name = "data.bin";
  inode.block_index = {7, 8};
  const std::string v = inode.Serialize();
  CoupledInode out;
  ASSERT_TRUE(CoupledInode::Deserialize(v, &out));
  EXPECT_EQ(out.attr.size, 8192u);
  EXPECT_EQ(out.name, "data.bin");
  EXPECT_EQ(out.block_index, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_FALSE(out.attr.is_dir);
}

TEST(LayoutTest, CoupledInodeRejectsTruncation) {
  CoupledInode inode;
  inode.name = "x";
  const std::string v = inode.Serialize();
  CoupledInode out;
  EXPECT_FALSE(CoupledInode::Deserialize(v.substr(0, v.size() - 1), &out));
  EXPECT_FALSE(CoupledInode::Deserialize(v + "extra", &out));
}

TEST(LayoutTest, CoupledValueLargerThanDecoupledParts) {
  // The Fig. 11 premise: the coupled value is strictly bigger than either
  // decoupled part, and grows with the block index.
  CoupledInode inode;
  inode.name = "some_file_name.dat";
  inode.block_index.assign(256, 42);
  EXPECT_GT(inode.Serialize().size(),
            AccessPartLayout::kSize + ContentPartLayout::kSize);
}

TEST(LayoutTest, FileKeyEmbedsUuidAndName) {
  const std::string key = FileKey(fs::Uuid::Make(1, 2), "file.txt");
  EXPECT_EQ(key.size(), 8u + 8u);
  EXPECT_EQ(common::LoadAt<std::uint64_t>(key, 0), fs::Uuid::Make(1, 2).raw());
  EXPECT_EQ(key.substr(8), "file.txt");
  EXPECT_EQ(DirentPrefix(fs::Uuid::Make(1, 2)), key.substr(0, 8));
  // A file's dirent record shares its inode's key.
  EXPECT_EQ(DirentKey(fs::Uuid::Make(1, 2), "file.txt"), key);
}

TEST(LayoutTest, DirentRecordsListInNameOrder) {
  auto store = DirentStore();
  const fs::Uuid dir = fs::Uuid::Make(1, 2);
  const fs::Uuid other = fs::Uuid::Make(1, 3);
  for (const char* name : {"ccc", "aa", "b"}) {
    ASSERT_TRUE(store->Put(DirentKey(dir, name), {}).ok());
  }
  ASSERT_TRUE(store->Put(DirentKey(other, "zz"), {}).ok());
  EXPECT_EQ(ListDirents(*store, dir),
            (std::vector<std::string>{"aa", "b", "ccc"}));
  ASSERT_TRUE(store->Delete(DirentKey(dir, "b")).ok());
  EXPECT_EQ(ListDirents(*store, dir), (std::vector<std::string>{"aa", "ccc"}));
  EXPECT_EQ(ListDirents(*store, other), (std::vector<std::string>{"zz"}));
  const auto by_dir = DirentsByDir(*store);
  ASSERT_EQ(by_dir.size(), 2u);
  EXPECT_EQ(by_dir.at(dir.raw()), (std::vector<std::string>{"aa", "ccc"}));
}

TEST(LayoutTest, DirentRecordPutIsIdempotent) {
  auto store = DirentStore();
  const fs::Uuid dir = fs::Uuid::Make(1, 2);
  ASSERT_TRUE(store->Put(DirentKey(dir, "x"), {}).ok());
  ASSERT_TRUE(store->Put(DirentKey(dir, "x"), {}).ok());
  EXPECT_EQ(ListDirents(*store, dir), (std::vector<std::string>{"x"}));
  ASSERT_TRUE(store->Delete(DirentKey(dir, "x")).ok());
  EXPECT_EQ(store->Delete(DirentKey(dir, "x")).code(), ErrCode::kNotFound);
}

TEST(LayoutTest, EmptyDirectoryHasNoRecords) {
  auto store = DirentStore();
  const fs::Uuid dir = fs::Uuid::Make(1, 2);
  EXPECT_TRUE(ListDirents(*store, dir).empty());
  EXPECT_FALSE(HasDirents(*store, dir));
  EXPECT_EQ(DeleteDirents(store.get(), dir), 0u);
  ASSERT_TRUE(store->Put(DirentKey(dir, "a"), {}).ok());
  ASSERT_TRUE(store->Put(DirentKey(dir, "b"), {}).ok());
  EXPECT_TRUE(HasDirents(*store, dir));
  EXPECT_EQ(DeleteDirents(store.get(), dir), 2u);
  EXPECT_FALSE(HasDirents(*store, dir));
}

TEST(LayoutTest, DirentScanPayloadKeepsTheListWireFormat) {
  // fsck reads kDmsScanDirents / kFmsScanDirents as one Pack(uuid, names)
  // per directory, as in the concatenated-list days.
  auto store = DirentStore();
  const fs::Uuid a = fs::Uuid::Make(1, 2);
  const fs::Uuid b = fs::Uuid::Make(1, 3);
  ASSERT_TRUE(store->Put(DirentKey(a, "y"), {}).ok());
  ASSERT_TRUE(store->Put(DirentKey(a, "x"), {}).ok());
  ASSERT_TRUE(store->Put(DirentKey(b, "z"), {}).ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(fs::Unpack(DirentScanPayload(*store), entries));
  ASSERT_EQ(entries.size(), 2u);
  std::map<std::uint64_t, std::vector<std::string>> got;
  for (const std::string& entry : entries) {
    fs::Uuid uuid;
    std::vector<std::string> names;
    ASSERT_TRUE(fs::Unpack(entry, uuid, names));
    got[uuid.raw()] = names;
  }
  EXPECT_EQ(got[a.raw()], (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(got[b.raw()], (std::vector<std::string>{"z"}));
}

}  // namespace
}  // namespace loco::core
