// Parameterized conformance suite: every Kv backend must satisfy the same
// observable contract (the metadata services are written against the Kv
// interface and may be configured with any backend).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "kvstore/kv.h"

namespace loco::kv {
namespace {

class KvConformanceTest : public ::testing::TestWithParam<KvBackend> {
 protected:
  void SetUp() override {
    auto made = MakeKv(GetParam());
    ASSERT_TRUE(made.ok());
    kv_ = std::move(made).value();
  }
  std::unique_ptr<Kv> kv_;
};

TEST_P(KvConformanceTest, GetMissingIsNotFound) {
  std::string v;
  EXPECT_EQ(kv_->Get("missing", &v).code(), ErrCode::kNotFound);
  EXPECT_FALSE(kv_->Contains("missing"));
}

TEST_P(KvConformanceTest, PutThenGet) {
  ASSERT_TRUE(kv_->Put("key", "value").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("key", &v).ok());
  EXPECT_EQ(v, "value");
  EXPECT_TRUE(kv_->Contains("key"));
  EXPECT_EQ(kv_->Size(), 1u);
}

TEST_P(KvConformanceTest, OverwriteReplaces) {
  ASSERT_TRUE(kv_->Put("key", "v1").ok());
  ASSERT_TRUE(kv_->Put("key", "v2-longer").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("key", &v).ok());
  EXPECT_EQ(v, "v2-longer");
  EXPECT_EQ(kv_->Size(), 1u);
}

TEST_P(KvConformanceTest, DeleteRemoves) {
  ASSERT_TRUE(kv_->Put("key", "v").ok());
  ASSERT_TRUE(kv_->Delete("key").ok());
  EXPECT_EQ(kv_->Size(), 0u);
  EXPECT_EQ(kv_->Delete("key").code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, BinaryKeysAndValues) {
  const std::string key("\x00\xff\x01with\x00nul", 11);
  const std::string val("\xde\xad\xbe\xef\x00", 5);
  ASSERT_TRUE(kv_->Put(key, val).ok());
  std::string v;
  ASSERT_TRUE(kv_->Get(key, &v).ok());
  EXPECT_EQ(v, val);
}

TEST_P(KvConformanceTest, LargeValueRoundTrip) {
  const std::string big(1 << 20, 'Z');
  ASSERT_TRUE(kv_->Put("big", big).ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("big", &v).ok());
  EXPECT_EQ(v, big);
}

TEST_P(KvConformanceTest, PatchValueSemantics) {
  ASSERT_TRUE(kv_->Put("k", "0123456789").ok());
  ASSERT_TRUE(kv_->PatchValue("k", 2, "ab").ok());
  std::string v;
  ASSERT_TRUE(kv_->Get("k", &v).ok());
  EXPECT_EQ(v, "01ab456789");
  EXPECT_EQ(kv_->PatchValue("k", 9, "xy").code(), ErrCode::kInvalid);
  EXPECT_EQ(kv_->PatchValue("absent", 0, "x").code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, ReadValueAtSemantics) {
  ASSERT_TRUE(kv_->Put("k", "0123456789").ok());
  std::string out;
  ASSERT_TRUE(kv_->ReadValueAt("k", 3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  EXPECT_EQ(kv_->ReadValueAt("k", 8, 4, &out).code(), ErrCode::kInvalid);
  EXPECT_EQ(kv_->ReadValueAt("absent", 0, 1, &out).code(), ErrCode::kNotFound);
}

TEST_P(KvConformanceTest, ScanPrefixFindsAllMatches) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv_->Put("match/" + std::to_string(i), "m").ok());
    ASSERT_TRUE(kv_->Put("other/" + std::to_string(i), "o").ok());
  }
  std::vector<Entry> out;
  ASSERT_TRUE(kv_->ScanPrefix("match/", 0, &out).ok());
  EXPECT_EQ(out.size(), 30u);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k.substr(0, 6), "match/");
    EXPECT_EQ(v, "m");
  }
  out.clear();
  ASSERT_TRUE(kv_->ScanPrefix("match/", 7, &out).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST_P(KvConformanceTest, VisitPrefixSeesWhatScanPrefixCopies) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv_->Put("match/" + std::to_string(i), "m").ok());
    ASSERT_TRUE(kv_->Put("other/" + std::to_string(i), "o").ok());
  }
  std::vector<Entry> scanned;
  KvStats before = kv_->stats();
  ASSERT_TRUE(kv_->ScanPrefix("match/", 0, &scanned).ok());
  const KvStats scan = kv_->stats() - before;

  std::vector<Entry> visited;
  before = kv_->stats();
  ASSERT_TRUE(kv_->VisitPrefix("match/", 0,
                               [&visited](std::string_view k,
                                          std::string_view v) {
                                 visited.emplace_back(k, v);
                                 return true;
                               })
                  .ok());
  const KvStats visit = kv_->stats() - before;
  // Same entries in the same order, counted the same way.
  EXPECT_EQ(visited, scanned);
  EXPECT_EQ(visit.scans, 1u);
  EXPECT_EQ(visit.scans, scan.scans);
  EXPECT_EQ(visit.scan_items, scan.scan_items);
  EXPECT_EQ(visit.bytes_read, scan.bytes_read);
}

TEST_P(KvConformanceTest, VisitPrefixHonorsLimitAndEarlyStop) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv_->Put("match/" + std::to_string(i), "m").ok());
    ASSERT_TRUE(kv_->Put("other/" + std::to_string(i), "o").ok());
  }
  std::size_t limited = 0;
  ASSERT_TRUE(kv_->VisitPrefix("match/", 7,
                               [&limited](std::string_view k, std::string_view) {
                                 EXPECT_EQ(k.substr(0, 6), "match/");
                                 ++limited;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(limited, 7u);

  const KvStats before = kv_->stats();
  std::size_t calls = 0;
  ASSERT_TRUE(kv_->VisitPrefix("match/", 0,
                               [&calls](std::string_view, std::string_view) {
                                 return ++calls < 3;
                               })
                  .ok());
  EXPECT_EQ(calls, 3u);
  const KvStats d = kv_->stats() - before;
  EXPECT_EQ(d.scans, 1u);
  // An ordered index walks matches only, and stops where `fn` did; a hash
  // table walks its slots until then.  LSM visits its merged copy.
  switch (GetParam()) {
    case KvBackend::kBTree: EXPECT_EQ(d.scan_items, 3u); break;
    case KvBackend::kHash: EXPECT_LT(d.scan_items, 60u); break;
    case KvBackend::kLsm: EXPECT_EQ(d.scan_items, 30u); break;
  }
}

TEST_P(KvConformanceTest, ForEachVisitsEverything) {
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(kv_->Put(std::to_string(i), "v").ok());
  std::size_t n = 0;
  kv_->ForEach([&](std::string_view, std::string_view) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 50u);
}

TEST_P(KvConformanceTest, RandomizedModelCheck) {
  std::map<std::string, std::string> model;
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 777);
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(250));
    if (rng.Chance(0.6)) {
      const std::string val = rng.Name(rng.Range(1, 64));
      ASSERT_TRUE(kv_->Put(key, val).ok());
      model[key] = val;
    } else if (rng.Chance(0.5)) {
      EXPECT_EQ(kv_->Delete(key).ok(), model.erase(key) > 0);
    } else {
      std::string v;
      const auto it = model.find(key);
      const Status s = kv_->Get(key, &v);
      if (it == model.end()) {
        EXPECT_EQ(s.code(), ErrCode::kNotFound);
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(v, it->second);
      }
    }
  }
  EXPECT_EQ(kv_->Size(), model.size());
}

TEST_P(KvConformanceTest, StatsAreMonotone) {
  ASSERT_TRUE(kv_->Put("a", "1").ok());
  std::string v;
  (void)kv_->Get("a", &v);
  const KvStats snap = kv_->stats();
  ASSERT_TRUE(kv_->Put("b", "2").ok());
  (void)kv_->Get("b", &v);
  const KvStats d = kv_->stats() - snap;
  EXPECT_EQ(d.puts, 1u);
  EXPECT_EQ(d.gets, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KvConformanceTest,
                         ::testing::Values(KvBackend::kHash, KvBackend::kBTree,
                                           KvBackend::kLsm),
                         [](const ::testing::TestParamInfo<KvBackend>& info) {
                           return std::string(KvBackendName(info.param));
                         });

}  // namespace
}  // namespace loco::kv
