// Server-side lease/watch bookkeeping for the DMS push plane (docs/LEASES.md).
//
// Every kDmsLookup that carries a client identity registers a watch: "client C
// holds a lease on directory P until now + proto::kLeaseNs".  When a mutation
// changes P (or, for rename, a whole subtree), the DMS collects the live
// watchers and pushes wire::kNotifyInvalidate to each of them — shrinking the
// remote-writer staleness window from the full lease term to roughly one RTT.
// The lease timeout itself stays authoritative: a client that misses the push
// (stream down, frame dropped) is still correct, just slower to notice.
//
// The table is bounded: at most kMaxWatches entries.  When a grant would
// exceed the bound, expired watches are swept first; if the table is still
// full the soonest-to-expire watch is evicted (its holder merely loses the
// push and falls back to the lease timeout, so eviction is always safe).
//
// Thread safety: all methods take an internal mutex; DMS handlers call in
// from many TcpServer workers at once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace loco::core {

class LeaseTable {
 public:
  // Upper bound on (path, client) watches.
  static constexpr std::size_t kMaxWatches = 65536;

  // Invoked when a *live* watch is evicted to make room at the cap.  The
  // evicted holder believed it would be pushed an invalidation for `path`;
  // since that promise is now broken, the owner (the DMS) must push a
  // synthetic invalidation so the client resyncs instead of serving a stale
  // entry until its lease times out.  Expired watches are swept without a
  // callback — their holders already fell back to the timeout.  Called with
  // no internal lock held (safe to re-enter the table).
  using OnEvict =
      std::function<void(const std::string& path, std::uint64_t client)>;

  explicit LeaseTable(OnEvict on_evict = nullptr)
      : on_evict_(std::move(on_evict)) {}

  // Record that `client` leased `path` at steady-clock instant `now`.
  // Re-granting refreshes the expiry.
  void Grant(const std::string& path, std::uint64_t client, std::uint64_t now);

  // Collect the live watchers of `path` — plus every path strictly under it
  // when `subtree` — excluding `exclude`, and *consume* their watches (an
  // invalidated lease is void; the holder re-leases on its next Lookup).
  // Expired watches encountered along the way are dropped, not returned.
  std::vector<std::uint64_t> Collect(const std::string& path, bool subtree,
                                     std::uint64_t exclude, std::uint64_t now);

  // Forget every watch of `client` (its push stream is gone, so pushes to it
  // can no longer be delivered).
  void Drop(std::uint64_t client);

  // Watch count (expired-but-unswept entries included).
  std::size_t size() const;

  // True when the expiry index holds exactly one entry per watch, naming
  // that watch (tests).
  bool CheckInvariants() const;

 private:
  struct ExpiryKey {
    std::string path;
    std::uint64_t client = 0;
  };
  // expiry -> (path, client), one entry per watch, soonest expiry first.
  using ExpiryIndex = std::multimap<std::uint64_t, ExpiryKey>;

  // Caller holds mu_.  Removes the watch `pos` indexes.
  void EraseLocked(ExpiryIndex::iterator pos);
  // Caller holds mu_.  Frees one slot: sweep expired watches, soonest
  // first, then evict the soonest-to-expire live one.  Live evictions are
  // appended to `evicted` so the caller can fire on_evict after releasing
  // mu_.
  void MakeRoomLocked(
      std::uint64_t now,
      std::vector<std::pair<std::string, std::uint64_t>>* evicted);

  const OnEvict on_evict_;
  mutable std::mutex mu_;
  // path -> {client -> the watch's index entry}; ordered so rename subtree
  // invalidation is a prefix range scan, mirroring the B+-tree range move it
  // reacts to.
  std::map<std::string, std::map<std::uint64_t, ExpiryIndex::iterator>>
      watches_;
  ExpiryIndex by_expiry_;
};

}  // namespace loco::core
