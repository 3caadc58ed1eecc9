#include "kvstore/hash_kv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/rng.h"

namespace loco::kv {
namespace {

class HashKVPersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hashkv_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST(HashKVTest, PutGetDelete) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("k1", "v1").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(kv.Contains("k1"));
  ASSERT_TRUE(kv.Delete("k1").ok());
  EXPECT_EQ(kv.Get("k1", &v).code(), ErrCode::kNotFound);
  EXPECT_EQ(kv.Delete("k1").code(), ErrCode::kNotFound);
  EXPECT_EQ(kv.Size(), 0u);
}

TEST(HashKVTest, OverwriteKeepsSingleEntry) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("k", "a").ok());
  ASSERT_TRUE(kv.Put("k", "bb").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("k", &v).ok());
  EXPECT_EQ(v, "bb");
  EXPECT_EQ(kv.Size(), 1u);
}

TEST(HashKVTest, EmptyKeyAndValueAreLegal) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("", "").ok());
  std::string v = "sentinel";
  ASSERT_TRUE(kv.Get("", &v).ok());
  EXPECT_EQ(v, "");
}

TEST(HashKVTest, OverwriteWithAnotherSizeKeepsCountsAndBytes) {
  // An entry is one block (key, then value): an overwrite with a new value
  // size replaces the block, an equal size rewrites it in place.
  HashKV kv;
  ASSERT_TRUE(kv.Put("key", "a").ok());
  ASSERT_TRUE(kv.Put("key", "a much longer value").ok());
  ASSERT_TRUE(kv.Put("key", "").ok());
  ASSERT_TRUE(kv.Put("key", "xyz").ok());
  ASSERT_TRUE(kv.Put("key", "XYZ").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("key", &v).ok());
  EXPECT_EQ(v, "XYZ");
  EXPECT_EQ(kv.Size(), 1u);
  ASSERT_TRUE(kv.PatchValue("key", 1, "-").ok());
  ASSERT_TRUE(kv.Get("key", &v).ok());
  EXPECT_EQ(v, "X-Z");
  const KvStats st = kv.stats();
  EXPECT_EQ(st.puts, 5u);
  EXPECT_EQ(st.bytes_written, 5u * 3 + 1 + 19 + 0 + 3 + 3 + 1);
}

TEST(HashKVTest, GrowsThroughManyRehashes) {
  HashKV kv;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(kv.Put("key" + std::to_string(i), std::to_string(i * 3)).ok());
  }
  EXPECT_EQ(kv.Size(), static_cast<std::size_t>(kN));
  EXPECT_GT(kv.Capacity(), static_cast<std::size_t>(kN));
  std::string v;
  for (int i = 0; i < kN; i += 97) {
    ASSERT_TRUE(kv.Get("key" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, std::to_string(i * 3));
  }
}

TEST(HashKVTest, BackwardShiftDeletionKeepsChainsIntact) {
  // Insert colliding-ish keys, delete half, verify the rest still found.
  HashKV kv;
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(kv.Put("k" + std::to_string(i), "v").ok());
  for (int i = 0; i < 3000; i += 2) ASSERT_TRUE(kv.Delete("k" + std::to_string(i)).ok());
  std::string v;
  for (int i = 0; i < 3000; ++i) {
    const Status s = kv.Get("k" + std::to_string(i), &v);
    if (i % 2 == 0) {
      EXPECT_EQ(s.code(), ErrCode::kNotFound) << i;
    } else {
      EXPECT_TRUE(s.ok()) << i;
    }
  }
}

TEST(HashKVTest, PatchValueInPlace) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("inode", "AAAABBBBCCCC").ok());
  ASSERT_TRUE(kv.PatchValue("inode", 4, "XXXX").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("inode", &v).ok());
  EXPECT_EQ(v, "AAAAXXXXCCCC");
  // Patch only accounts the patched bytes, not the whole value.
  EXPECT_EQ(kv.stats().patches, 1u);
}

TEST(HashKVTest, PatchOutOfRangeFails) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("k", "1234").ok());
  EXPECT_EQ(kv.PatchValue("k", 3, "ab").code(), ErrCode::kInvalid);
  EXPECT_EQ(kv.PatchValue("absent", 0, "a").code(), ErrCode::kNotFound);
}

TEST(HashKVTest, ReadValueAtSlices) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("k", "abcdef").ok());
  std::string out;
  ASSERT_TRUE(kv.ReadValueAt("k", 2, 3, &out).ok());
  EXPECT_EQ(out, "cde");
  EXPECT_EQ(kv.ReadValueAt("k", 4, 3, &out).code(), ErrCode::kInvalid);
}

TEST(HashKVTest, ScanPrefixVisitsWholeTable) {
  HashKV kv;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(kv.Put("a/" + std::to_string(i), "x").ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(kv.Put("b/" + std::to_string(i), "y").ok());
  std::vector<Entry> out;
  ASSERT_TRUE(kv.ScanPrefix("a/", 0, &out).ok());
  EXPECT_EQ(out.size(), 100u);
  // Hash mode scans every record: scan_items counts the full table.
  EXPECT_GE(kv.stats().scan_items, 150u);
}

TEST(HashKVTest, ForEachEarlyStop) {
  HashKV kv;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(kv.Put(std::to_string(i), "v").ok());
  int seen = 0;
  kv.ForEach([&](std::string_view, std::string_view) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(HashKVPersistTest, RecoversFromWal) {
  KvOptions opt;
  opt.dir = dir_.string();
  {
    HashKV kv(opt);
    ASSERT_TRUE(kv.Open().ok());
    ASSERT_TRUE(kv.Put("a", "1").ok());
    ASSERT_TRUE(kv.Put("b", "2").ok());
    ASSERT_TRUE(kv.Delete("a").ok());
    ASSERT_TRUE(kv.Put("c", "333").ok());
    ASSERT_TRUE(kv.PatchValue("c", 1, "X").ok());
  }
  HashKV kv(opt);
  ASSERT_TRUE(kv.Open().ok());
  EXPECT_EQ(kv.Size(), 2u);
  std::string v;
  EXPECT_EQ(kv.Get("a", &v).code(), ErrCode::kNotFound);
  ASSERT_TRUE(kv.Get("b", &v).ok());
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(kv.Get("c", &v).ok());
  EXPECT_EQ(v, "3X3");
}

TEST_F(HashKVPersistTest, RandomizedAgainstModelWithRecovery) {
  KvOptions opt;
  opt.dir = dir_.string();
  std::map<std::string, std::string> model;
  common::Rng rng(2024);
  {
    HashKV kv(opt);
    ASSERT_TRUE(kv.Open().ok());
    for (int i = 0; i < 5000; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(500));
      if (rng.Chance(0.7)) {
        const std::string val = rng.Name(rng.Range(0, 40));
        ASSERT_TRUE(kv.Put(key, val).ok());
        model[key] = val;
      } else {
        const Status s = kv.Delete(key);
        EXPECT_EQ(s.ok(), model.erase(key) > 0);
      }
    }
    EXPECT_EQ(kv.Size(), model.size());
  }
  HashKV kv(opt);
  ASSERT_TRUE(kv.Open().ok());
  ASSERT_EQ(kv.Size(), model.size());
  std::string v;
  for (const auto& [key, val] : model) {
    ASSERT_TRUE(kv.Get(key, &v).ok()) << key;
    EXPECT_EQ(v, val);
  }
}

TEST(HashKVTest, StatsCounters) {
  HashKV kv;
  ASSERT_TRUE(kv.Put("key", "value").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("key", &v).ok());
  (void)kv.Get("missing", &v);
  ASSERT_TRUE(kv.Delete("key").ok());
  const KvStats& st = kv.stats();
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.gets, 2u);
  EXPECT_EQ(st.deletes, 1u);
  EXPECT_EQ(st.bytes_written, 8u);  // "key"+"value"
  EXPECT_EQ(st.bytes_read, 5u);
}

}  // namespace
}  // namespace loco::kv
