// LeaseTable unit tests: grant/collect semantics, subtree prefix scans,
// originator exclusion, expiry, the bounded-size eviction policy, and
// dead-client cleanup.
#include "core/lease_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/proto.h"

namespace loco::core {
namespace {

constexpr std::uint64_t kLease = proto::kLeaseNs;
constexpr std::size_t kMax = LeaseTable::kMaxWatches;

// Grant `count` watches on distinct filler paths at `now`, all to `client`.
void Fill(LeaseTable& table, std::size_t count, std::uint64_t client,
          std::uint64_t now) {
  for (std::size_t i = 0; i < count; ++i) {
    table.Grant("/fill" + std::to_string(i), client, now);
  }
}

std::vector<std::uint64_t> Sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(LeaseTableTest, CollectReturnsLiveWatchersAndConsumesThem) {
  LeaseTable table;
  table.Grant("/d", 1, 0);
  table.Grant("/d", 2, 0);
  EXPECT_EQ(table.size(), 2u);

  EXPECT_EQ(Sorted(table.Collect("/d", false, 0, 10)),
            (std::vector<std::uint64_t>{1, 2}));
  // Consumed: an invalidated lease is void until re-granted.
  EXPECT_TRUE(table.Collect("/d", false, 0, 10).empty());
  EXPECT_EQ(table.size(), 0u);
}

TEST(LeaseTableTest, ExcludesTheOriginatorButStillConsumesItsWatch) {
  LeaseTable table;
  table.Grant("/d", 1, 0);
  table.Grant("/d", 2, 0);
  EXPECT_EQ(table.Collect("/d", false, /*exclude=*/1, 10),
            (std::vector<std::uint64_t>{2}));
  // The mutating client's own watch is consumed too — its cache entry was
  // refreshed by its own mutation path, and the lease is re-granted on the
  // next Lookup anyway.
  EXPECT_TRUE(table.Collect("/d", false, 0, 10).empty());
}

TEST(LeaseTableTest, ExpiredWatchesAreNotCollected) {
  LeaseTable table;
  table.Grant("/d", 1, 0);            // expires at kLease
  table.Grant("/d", 2, kLease / 2);   // expires at 1.5 * kLease
  EXPECT_EQ(table.Collect("/d", false, 0, kLease + 1),
            (std::vector<std::uint64_t>{2}));
}

TEST(LeaseTableTest, RegrantRefreshesExpiry) {
  LeaseTable table;
  table.Grant("/d", 1, 0);
  table.Grant("/d", 1, kLease);  // refresh: now expires at 2 * kLease
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Collect("/d", false, 0, kLease + 1),
            (std::vector<std::uint64_t>{1}));
}

TEST(LeaseTableTest, SubtreeCollectIsAPrefixScanWithBoundary) {
  LeaseTable table;
  table.Grant("/a", 1, 0);
  table.Grant("/a/x", 2, 0);
  table.Grant("/a/x/y", 3, 0);
  table.Grant("/a.b", 4, 0);  // "/a.b" sorts between "/a" and "/a/" — not in
  table.Grant("/ab", 5, 0);   // the subtree, and neither is "/ab"
  table.Grant("/b", 6, 0);

  EXPECT_EQ(Sorted(table.Collect("/a", true, 0, 10)),
            (std::vector<std::uint64_t>{1, 2, 3}));
  // The non-subtree watches survive.
  EXPECT_EQ(Sorted(table.Collect("/a.b", false, 0, 10)),
            (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(Sorted(table.Collect("/ab", false, 0, 10)),
            (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(Sorted(table.Collect("/b", false, 0, 10)),
            (std::vector<std::uint64_t>{6}));
}

TEST(LeaseTableTest, NonSubtreeCollectLeavesChildrenAlone) {
  LeaseTable table;
  table.Grant("/a", 1, 0);
  table.Grant("/a/x", 2, 0);
  EXPECT_EQ(table.Collect("/a", false, 0, 10),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Collect("/a/x", false, 0, 10),
            (std::vector<std::uint64_t>{2}));
}

TEST(LeaseTableTest, DropForgetsEveryWatchOfAClient) {
  LeaseTable table;
  table.Grant("/a", 1, 0);
  table.Grant("/b", 1, 0);
  table.Grant("/b", 2, 0);
  table.Drop(1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Collect("/a", false, 0, 10).empty());
  EXPECT_EQ(table.Collect("/b", false, 0, 10),
            (std::vector<std::uint64_t>{2}));
}

TEST(LeaseTableTest, BoundSweepsExpiredBeforeEvictingLive) {
  LeaseTable table;
  table.Grant("/e1", 1, 0);  // expires at kLease
  table.Grant("/e2", 2, 0);
  // Live long past the others; fills the table.
  table.Grant("/l1", 3, 2 * kLease);
  Fill(table, kMax - 3, 5, 2 * kLease);
  ASSERT_EQ(table.size(), kMax);
  // One grant past the bound at a time when /e1 and /e2 are expired: the
  // sweep frees a slot, the live watches stay.
  table.Grant("/l2", 4, 2 * kLease);
  EXPECT_LE(table.size(), kMax);
  EXPECT_EQ(table.Collect("/l1", false, 0, 2 * kLease + 1),
            (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(table.Collect("/l2", false, 0, 2 * kLease + 1),
            (std::vector<std::uint64_t>{4}));
}

TEST(LeaseTableTest, BoundEvictsSoonestToExpireWhenAllLive) {
  LeaseTable table;
  table.Grant("/a", 1, 0);   // soonest to expire
  table.Grant("/b", 2, 10);  // later
  Fill(table, kMax - 2, 5, 10);
  table.Grant("/c", 3, 20);  // forces eviction of /a's watch
  EXPECT_EQ(table.size(), kMax);
  // /a's holder lost its push (safe: the lease timeout still bounds its
  // staleness); the younger watches survived.
  EXPECT_TRUE(table.Collect("/a", false, 0, 30).empty());
  EXPECT_EQ(table.Collect("/b", false, 0, 30),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(table.Collect("/c", false, 0, 30),
            (std::vector<std::uint64_t>{3}));
}

TEST(LeaseTableTest, EvictingTheGrantedPathsLastHolderKeepsTheGrant) {
  // Regression: a grant at the bound whose eviction victim was the only
  // other holder of the same path erased that path's entry while the grant
  // still held a reference into it (a use-after-free under ASan).
  LeaseTable table;
  table.Grant("/a", 1, 0);  // soonest to expire: the eviction victim
  Fill(table, kMax - 1, 5, 10);
  table.Grant("/a", 2, 20);
  EXPECT_EQ(table.size(), kMax);
  EXPECT_TRUE(table.CheckInvariants());
  EXPECT_EQ(table.Collect("/a", false, 0, 30),
            (std::vector<std::uint64_t>{2}));
}

TEST(LeaseTableTest, EvictingALiveWatchFiresTheResyncCallback) {
  // Regression: at the watch cap, evicting a *live* watch used to silently
  // drop its invalidation promise — the holder kept serving a stale cache
  // entry until the lease timeout with no signal at all.  The table must
  // report the evicted (path, client) so the DMS can push a synthetic
  // invalidation.
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  LeaseTable table([&](const std::string& path, std::uint64_t client) {
    evicted.emplace_back(path, client);
  });
  table.Grant("/a", 1, 0);   // soonest to expire: the eviction victim
  table.Grant("/b", 2, 10);
  Fill(table, kMax - 2, 5, 10);
  table.Grant("/c", 3, 20);  // cap boundary: forces the eviction
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, "/a");
  EXPECT_EQ(evicted[0].second, 1u);
}

TEST(LeaseTableTest, SweepingExpiredWatchesDoesNotFireTheCallback) {
  // Expired watches already fell back to the lease timeout; resyncing them
  // would be pure noise.
  int fired = 0;
  LeaseTable table([&](const std::string&, std::uint64_t) { ++fired; });
  table.Grant("/e1", 1, 0);  // expires at kLease
  table.Grant("/e2", 2, 0);
  Fill(table, kMax - 2, 5, 0);
  // Granting at 2*kLease sweeps an expired watch; no live eviction.
  table.Grant("/l1", 3, 2 * kLease);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(table.Collect("/l1", false, 0, 2 * kLease + 1),
            (std::vector<std::uint64_t>{3}));
}

TEST(LeaseTableTest, EvictCallbackMayReenterTheTable) {
  // The DMS callback re-enters via Drop() when the push session is gone; the
  // table must not hold its lock across the callback.
  LeaseTable* table_ptr = nullptr;
  int fired = 0;
  LeaseTable table([&](const std::string&, std::uint64_t client) {
    ++fired;
    table_ptr->Drop(client);  // deadlocks if mu_ were held across on_evict
  });
  table_ptr = &table;
  table.Grant("/a", 1, 0);
  table.Grant("/b", 2, 10);
  Fill(table, kMax - 2, 5, 10);
  table.Grant("/c", 3, 20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(table.Collect("/c", false, 0, 30),
            (std::vector<std::uint64_t>{3}));
}

TEST(LeaseTableTest, ConcurrentGrantCollectDropIsSafe) {
  LeaseTable table;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table, t] {
      const auto client = static_cast<std::uint64_t>(t + 1);
      for (int i = 0; i < 500; ++i) {
        const std::string path = "/p" + std::to_string(i % 17);
        table.Grant(path, client, static_cast<std::uint64_t>(i));
        if (i % 3 == 0) {
          table.Collect(path, i % 6 == 0, client,
                        static_cast<std::uint64_t>(i));
        }
        if (i % 101 == 0) table.Drop(client);
      }
    });
  }
  for (auto& th : threads) th.join();
  // At most one watch per (path, client), each indexed exactly once.
  EXPECT_LE(table.size(), 4u * 17u);
  EXPECT_TRUE(table.CheckInvariants());
}

TEST(LeaseTableTest, ExpiryIndexHoldsExactlyTheWatches) {
  // Regression: a refresh, a Collect and a Drop each left the watch's old
  // expiry-index entry behind, and only a grant at the watch bound swept
  // them, so one client cycling Grant + Collect on one path grew the index
  // by one entry per grant.
  LeaseTable table;
  for (std::uint64_t i = 0; i < 100; ++i) {
    table.Grant("/d", 1, i);
    table.Grant("/d", 1, i + 1);  // refresh
    table.Grant("/e", 2, i);
    table.Grant("/f", 2, i);
    ASSERT_TRUE(table.CheckInvariants()) << "after grants " << i;
    table.Collect("/d", false, 0, i + 1);
    ASSERT_TRUE(table.CheckInvariants()) << "after collect " << i;
    table.Drop(2);
    ASSERT_TRUE(table.CheckInvariants()) << "after drop " << i;
    ASSERT_EQ(table.size(), 0u);
  }
  // Sweeps and evictions at the bound keep it too.
  Fill(table, kMax, 3, 0);
  table.Grant("/late", 4, kLease);  // sweeps one expired filler
  table.Grant("/later", 4, 0);      // evicts a live filler
  EXPECT_EQ(table.size(), kMax);
  EXPECT_TRUE(table.CheckInvariants());
}

}  // namespace
}  // namespace loco::core
