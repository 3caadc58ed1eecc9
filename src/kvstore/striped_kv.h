// Thread-safe KV built from lock-striped shards.
//
// None of the single-store engines (hash_kv.h, btree_kv.h, lsm_kv.h) is
// internally thread-safe — HashKV rehashes the whole table, BTreeKV splits
// nodes, and both count into a shared KvStats.  StripedKv makes a store safe
// for the multi-worker daemons by partitioning the key space across N
// independent inner stores, each guarded by its own mutex.  The stripe is
// picked by the same WyMix hash (and seed) the consistent-hash ring uses to
// place keys on servers (core/ring.cc), so concurrent operations on
// different keys serialize only on stripe collisions.
//
// Routing: by default the whole key is hashed.  An owner whose keys group
// under fixed-length prefixes — a directory's dirent records share its
// 8-byte uuid (core/layout.h) — hashes only the first `route_prefix` bytes
// instead, so every key of one group lands in one stripe and a ScanPrefix /
// VisitPrefix of a prefix at least that long reads that stripe alone, in
// order, without a merge.
//
// Persistence: each stripe owns `options.dir/stripeNN` with its own WAL, so
// recovery opens the same stripes the writer produced.  Stripe count and
// routing are fixed for the lifetime of a store directory.
//
// Cross-stripe reads (Size, ScanPrefix, ForEach, stats) lock stripes one at
// a time: they see every entry that existed throughout the call but are not
// a point-in-time snapshot with respect to concurrent writers — the same
// read-committed behavior the directory-granularity locks in DMS/FMS rely
// on.  ForEach and VisitPrefix call `fn` under a stripe's lock.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "kvstore/kv.h"

namespace loco::kv {

class StripedKv final : public Kv {
 public:
  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  bool Contains(std::string_view key) const override;
  Status PatchValue(std::string_view key, std::size_t offset,
                    std::string_view patch) override;
  Status ReadValueAt(std::string_view key, std::size_t offset, std::size_t len,
                     std::string* out) const override;
  std::size_t Size() const override;
  Status ScanPrefix(std::string_view prefix, std::size_t limit,
                    std::vector<Entry>* out) const override;
  Status VisitPrefix(std::string_view prefix, std::size_t limit,
                     const Visitor& fn) const override;
  void ForEach(const std::function<bool(std::string_view, std::string_view)>&
                   fn) const override;
  bool Ordered() const noexcept override { return ordered_; }
  KvStats stats() const noexcept override;
  void ResetStats() noexcept override;

  std::size_t stripe_count() const noexcept { return stripes_.size(); }

 private:
  friend Result<std::unique_ptr<Kv>> MakeStripedKv(KvBackend,
                                                   const KvOptions&,
                                                   std::size_t, std::size_t);
  struct Stripe {
    mutable std::mutex mu;
    std::unique_ptr<Kv> kv;
  };

  std::size_t StripeOf(std::string_view key) const noexcept;
  // The one stripe holding every key that starts with `prefix`, or null
  // when such keys may sit in any stripe.
  const Stripe* PrefixStripe(std::string_view prefix) const noexcept;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t route_prefix_ = 0;  // 0: route by the whole key
  bool ordered_ = false;
};

// Lock stripes per server store: enough that multi-worker servers rarely
// contend on one stripe's mutex.
inline constexpr std::size_t kStripes = 16;

// Create a striped store over `stripes` inner `backend` stores (rounded up
// to a power of two).  With options.dir set, stripe N persists under
// "<dir>/stripeNN".  A nonzero `route_prefix` routes keys by their first
// `route_prefix` bytes (see Routing above).
Result<std::unique_ptr<Kv>> MakeStripedKv(KvBackend backend,
                                          const KvOptions& options = {},
                                          std::size_t stripes = kStripes,
                                          std::size_t route_prefix = 0);

}  // namespace loco::kv
