#include "kvstore/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/kv.h"

namespace loco::kv {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("waltest_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "test.wal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalTest, Crc32cKnownVector) {
  // RFC 3720 test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aau);
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST_F(WalTest, AppendAndReplay) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, /*sync_writes=*/false).ok());
  ASSERT_TRUE(wal.Append("one").ok());
  ASSERT_TRUE(wal.Append("two").ok());
  ASSERT_TRUE(wal.Append("").ok());  // empty payloads are legal
  wal.Close();

  std::vector<std::string> records;
  auto n = Wal::Replay(path_, [&](std::string_view r) { records.emplace_back(r); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "one");
  EXPECT_EQ(records[1], "two");
  EXPECT_EQ(records[2], "");
}

TEST_F(WalTest, ReplayMissingFileIsEmpty) {
  auto n = Wal::Replay(path_, [](std::string_view) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(WalTest, TornTailIsIgnored) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.Append("intact-record").ok());
  wal.Close();
  // Simulate a crash mid-append: write a header claiming 100 bytes but only
  // 3 bytes of payload.
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    const char hdr[8] = {0, 0, 0, 0, 100, 0, 0, 0};
    f.write(hdr, sizeof(hdr));
    f.write("abc", 3);
  }
  std::vector<std::string> records;
  auto n = Wal::Replay(path_, [&](std::string_view r) { records.emplace_back(r); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(records[0], "intact-record");
}

TEST_F(WalTest, CorruptCrcStopsReplay) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.Append("first").ok());
  ASSERT_TRUE(wal.Append("second").ok());
  wal.Close();
  // Flip a payload byte of the first record (offset 8 = after its header).
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.put('X');
  }
  std::vector<std::string> records;
  auto n = Wal::Replay(path_, [&](std::string_view r) { records.emplace_back(r); });
  ASSERT_TRUE(n.ok());
  // Replay must stop at the corrupt record even though "second" is intact.
  EXPECT_EQ(*n, 0u);
}

TEST_F(WalTest, AppendAfterReopenPreservesOldRecords) {
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.Append("a").ok());
  }
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path_, false).ok());
    ASSERT_TRUE(wal.Append("b").ok());
  }
  std::vector<std::string> records;
  ASSERT_TRUE(Wal::Replay(path_, [&](std::string_view r) {
                records.emplace_back(r);
              }).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "a");
  EXPECT_EQ(records[1], "b");
}

TEST_F(WalTest, TruncateDiscardsRecords) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.Append("gone").ok());
  ASSERT_TRUE(wal.Truncate().ok());
  ASSERT_TRUE(wal.Append("kept").ok());
  wal.Close();
  std::vector<std::string> records;
  ASSERT_TRUE(Wal::Replay(path_, [&](std::string_view r) {
                records.emplace_back(r);
              }).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "kept");
}

TEST_F(WalTest, CountsAppendedBytes) {
  Wal wal;
  ASSERT_TRUE(wal.Open(path_, false).ok());
  ASSERT_TRUE(wal.Append("12345").ok());
  EXPECT_EQ(wal.appended_records(), 1u);
  EXPECT_EQ(wal.appended_bytes(), 5u + 8u);
}

TEST_F(WalTest, StoreIoBytesEqualTheLogFileSize) {
  // A store counts each logged record with its frame header, so after any
  // mix of puts, patches and deletes its io_bytes is its log's size.  LsmKV
  // is left out: it also counts run writes and truncates its log on flush.
  for (const auto& [backend, file] :
       {std::pair{KvBackend::kHash, "hashkv.wal"},
        std::pair{KvBackend::kBTree, "btreekv.wal"}}) {
    const std::string name(KvBackendName(backend));
    KvOptions options;
    options.dir = (dir_ / name).string();
    std::filesystem::create_directories(options.dir);
    auto made = MakeKv(backend, options);
    ASSERT_TRUE(made.ok()) << name;
    Kv& kv = **made;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          kv.Put("key" + std::to_string(i), std::string(1 + i % 17, 'v')).ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(kv.PatchValue("key" + std::to_string(20 + i), 0, "p").ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(kv.Delete("key" + std::to_string(3 * i)).ok());
    }
    EXPECT_EQ(kv.stats().io_bytes,
              std::filesystem::file_size(options.dir + "/" + file))
        << name;
  }
}

TEST_F(WalTest, OpenInvalidPathFails) {
  Wal wal;
  EXPECT_EQ(wal.Open((dir_ / "no/such/dir/x.wal").string(), false).code(),
            ErrCode::kIo);
}

}  // namespace
}  // namespace loco::kv
