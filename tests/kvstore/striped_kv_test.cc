// StripedKv: lock-striped wrapper that makes any Kv backend thread-safe.
// Conformance of the point/scan surface, cross-stripe aggregation (Size,
// stats, ScanPrefix ordering), persistence layout (one subdirectory per
// stripe), and — the reason it exists — a multi-threaded stress run that
// must be free of lost updates (and data races under TSan).
#include "kvstore/striped_kv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace loco::kv {
namespace {

std::unique_ptr<Kv> MustMake(KvBackend backend, const KvOptions& options = {},
                             std::size_t stripes = 8) {
  auto kv = MakeStripedKv(backend, options, stripes);
  EXPECT_TRUE(kv.ok());
  return std::move(kv).value();
}

TEST(StripedKvTest, PointOpsBehaveLikeASingleStore) {
  auto kv = MustMake(KvBackend::kHash);
  ASSERT_TRUE(kv->Put("k1", "v1").ok());
  ASSERT_TRUE(kv->Put("k2", "v2").ok());
  std::string v;
  ASSERT_TRUE(kv->Get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(kv->Contains("k2"));
  EXPECT_EQ(kv->Size(), 2u);
  ASSERT_TRUE(kv->Delete("k1").ok());
  EXPECT_EQ(kv->Get("k1", &v).code(), ErrCode::kNotFound);
  EXPECT_EQ(kv->Size(), 1u);
}

TEST(StripedKvTest, PatchAndReadValueAtRouteToTheRightStripe) {
  auto kv = MustMake(KvBackend::kHash);
  ASSERT_TRUE(kv->Put("inode", "aaaabbbb").ok());
  ASSERT_TRUE(kv->PatchValue("inode", 4, "XXXX").ok());
  std::string part;
  ASSERT_TRUE(kv->ReadValueAt("inode", 4, 4, &part).ok());
  EXPECT_EQ(part, "XXXX");
  std::string whole;
  ASSERT_TRUE(kv->Get("inode", &whole).ok());
  EXPECT_EQ(whole, "aaaaXXXX");
}

TEST(StripedKvTest, OrderedScanMergesAcrossStripes) {
  // BTree stripes are each ordered, but keys are hash-partitioned across
  // them; ScanPrefix must re-merge into one lexicographic sequence.
  auto kv = MustMake(KvBackend::kBTree);
  for (int i = 0; i < 40; ++i) {
    const std::string suffix = std::string(1, char('a' + i % 26)) +
                               std::to_string(i);
    ASSERT_TRUE(kv->Put("/dir/" + suffix, "v").ok());
  }
  ASSERT_TRUE(kv->Put("/other", "v").ok());

  std::vector<Entry> entries;
  ASSERT_TRUE(kv->ScanPrefix("/dir/", 0, &entries).ok());
  ASSERT_EQ(entries.size(), 40u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }

  // A limited scan returns the smallest `limit` matches overall, not an
  // arbitrary per-stripe subset.
  std::vector<Entry> limited;
  ASSERT_TRUE(kv->ScanPrefix("/dir/", 5, &limited).ok());
  ASSERT_EQ(limited.size(), 5u);
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i].first, entries[i].first);
  }
}

// 8-byte group prefix + suffix, like a dirent record (core/layout.h).
std::string GroupKey(int group, const std::string& suffix) {
  std::string key(8, '\0');
  key[0] = static_cast<char>(group);
  return key + suffix;
}

TEST(StripedKvTest, PrefixRoutingKeepsAGroupInOneStripe) {
  for (const KvBackend backend :
       {KvBackend::kBTree, KvBackend::kHash, KvBackend::kLsm}) {
    auto kv = MakeStripedKv(backend, {}, 8, /*route_prefix=*/8);
    ASSERT_TRUE(kv.ok());
    auto& striped = *kv.value();
    for (int g = 0; g < 5; ++g) {
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(striped.Put(GroupKey(g, "n" + std::to_string(i)), "v").ok());
      }
    }
    for (int g = 0; g < 5; ++g) {
      const KvStats before = striped.stats();
      std::vector<std::string> seen;
      ASSERT_TRUE(striped
                      .VisitPrefix(GroupKey(g, ""), 0,
                                   [&seen](std::string_view k, std::string_view) {
                                     seen.emplace_back(k);
                                     return true;
                                   })
                      .ok());
      // One stripe scanned: the whole group lives there.
      EXPECT_EQ((striped.stats() - before).scans, 1u) << KvBackendName(backend);
      ASSERT_EQ(seen.size(), 40u) << KvBackendName(backend);
      if (striped.Ordered()) {
        EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
      }
      std::vector<Entry> copied;
      ASSERT_TRUE(striped.ScanPrefix(GroupKey(g, ""), 0, &copied).ok());
      EXPECT_EQ(copied.size(), 40u);
    }
  }
}

TEST(StripedKvTest, RoutedVisitHonorsLimitEarlyStopAndCounts) {
  auto routed = MakeStripedKv(KvBackend::kBTree, {}, 8, /*route_prefix=*/8);
  ASSERT_TRUE(routed.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(routed.value()->Put(GroupKey(1, "n" + std::to_string(i)), "v").ok());
  }
  const Kv& store = *routed.value();
  std::size_t limited = 0;
  ASSERT_TRUE(store
                  .VisitPrefix(GroupKey(1, ""), 4,
                               [&limited](std::string_view, std::string_view) {
                                 ++limited;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(limited, 4u);
  const KvStats before = store.stats();
  std::size_t calls = 0;
  ASSERT_TRUE(store
                  .VisitPrefix(GroupKey(1, ""), 0,
                               [&calls](std::string_view, std::string_view) {
                                 return ++calls < 5;
                               })
                  .ok());
  EXPECT_EQ(calls, 5u);
  const KvStats d = store.stats() - before;
  EXPECT_EQ(d.scans, 1u);
  EXPECT_EQ(d.scan_items, 5u);
}

TEST(StripedKvTest, ShortPrefixStillScansEveryStripeInOrder) {
  // A prefix shorter than the routing length may match keys in any stripe:
  // the scan merges all of them.
  auto kv = MakeStripedKv(KvBackend::kBTree, {}, 8, /*route_prefix=*/8);
  ASSERT_TRUE(kv.ok());
  auto& striped = *kv.value();
  for (int g = 0; g < 6; ++g) {
    ASSERT_TRUE(striped.Put(GroupKey(g, "x"), "v").ok());
  }
  const KvStats before = striped.stats();
  std::vector<Entry> all;
  ASSERT_TRUE(striped.ScanPrefix(std::string(1, '\0'), 0, &all).ok());
  EXPECT_EQ((striped.stats() - before).scans, 8u);
  ASSERT_EQ(all.size(), 1u);  // only group 0 starts with a zero byte
  std::vector<std::string> visited;
  ASSERT_TRUE(striped
                  .VisitPrefix("", 0,
                               [&visited](std::string_view k, std::string_view) {
                                 visited.emplace_back(k);
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(visited.size(), 6u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(StripedKvTest, ForEachVisitsEverythingAndHonorsEarlyStop) {
  auto kv = MustMake(KvBackend::kHash);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv->Put("k" + std::to_string(i), "v").ok());
  }
  std::size_t seen = 0;
  kv->ForEach([&seen](std::string_view, std::string_view) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 30u);

  std::size_t visited = 0;
  kv->ForEach([&visited](std::string_view, std::string_view) {
    return ++visited < 7;
  });
  EXPECT_EQ(visited, 7u);
}

TEST(StripedKvTest, StatsAggregateAcrossStripesAndReset) {
  auto kv = MustMake(KvBackend::kHash);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(kv->Put("k" + std::to_string(i), "value").ok());
  }
  std::string v;
  ASSERT_TRUE(kv->Get("k3", &v).ok());
  const KvStats stats = kv->stats();
  EXPECT_EQ(stats.puts, 16u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_GT(stats.bytes_written, 0u);

  kv->ResetStats();
  const KvStats zeroed = kv->stats();
  EXPECT_EQ(zeroed.puts, 0u);
  EXPECT_EQ(zeroed.gets, 0u);
}

TEST(StripedKvTest, StripeCountRoundsUpToPowerOfTwo) {
  auto kv = MakeStripedKv(KvBackend::kHash, {}, 5);
  ASSERT_TRUE(kv.ok());
  auto* striped = static_cast<StripedKv*>(kv.value().get());
  EXPECT_EQ(striped->stripe_count(), 8u);
}

TEST(StripedKvTest, PersistsUnderPerStripeSubdirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stripedkv_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  KvOptions options;
  options.dir = dir.string();
  {
    auto kv = MustMake(KvBackend::kHash, options, 4);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(kv->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "stripe0"));
  EXPECT_TRUE(std::filesystem::exists(dir / "stripe3"));

  // Reopening over the same directory recovers every entry from the
  // per-stripe WALs (same hash -> same stripe assignment).
  auto reopened = MustMake(KvBackend::kHash, options, 4);
  EXPECT_EQ(reopened->Size(), 64u);
  std::string v;
  ASSERT_TRUE(reopened->Get("key17", &v).ok());
  EXPECT_EQ(v, "v17");
  std::filesystem::remove_all(dir);
}

TEST(StripedKvStressTest, ConcurrentMixedOpsLoseNoUpdates) {
  auto kv = MustMake(KvBackend::kHash, {}, 8);
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 200;
  std::atomic<int> failures{0};

  // Disjoint key ranges: every surviving key must hold its final value.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv, &failures, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!kv->Put(key, "first").ok()) failures.fetch_add(1);
        if (!kv->PatchValue(key, 0, "FIRST").ok()) failures.fetch_add(1);
        if (i % 3 == 0) {
          if (!kv->Delete(key).ok()) failures.fetch_add(1);
        }
        std::string v;
        (void)kv->Get(key, &v);
        // Cross-stripe readers run concurrently with the writers.
        if (i % 50 == 0) (void)kv->Size();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  std::size_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      if (i % 3 == 0) continue;
      ++expected;
      std::string v;
      const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(kv->Get(key, &v).ok()) << key;
      EXPECT_EQ(v, "FIRST") << key;
    }
  }
  EXPECT_EQ(kv->Size(), expected);

  const KvStats stats = kv->stats();
  EXPECT_EQ(stats.puts, std::uint64_t(kThreads) * kKeysPerThread);
  EXPECT_EQ(stats.patches, std::uint64_t(kThreads) * kKeysPerThread);
}

}  // namespace
}  // namespace loco::kv
