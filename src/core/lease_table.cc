#include "core/lease_table.h"

#include <algorithm>

#include "core/proto.h"

namespace loco::core {

void LeaseTable::Grant(const std::string& path, std::uint64_t client,
                       std::uint64_t now) {
  if (client == 0) return;
  const std::uint64_t expiry = now + proto::kLeaseNs;
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = watches_.find(path);
    if (it != watches_.end()) {
      const auto holder = it->second.find(client);
      if (holder != it->second.end()) {
        // Refresh: the watch moves to its new expiry in the index.
        by_expiry_.erase(holder->second);
        holder->second = by_expiry_.emplace(expiry, ExpiryKey{path, client});
        return;
      }
    }
    // Make room before indexing the path: an eviction may erase its entry.
    if (by_expiry_.size() >= kMaxWatches) MakeRoomLocked(now, &evicted);
    watches_[path].emplace(client,
                           by_expiry_.emplace(expiry, ExpiryKey{path, client}));
  }
  // Fire eviction callbacks outside mu_: the DMS handler pushes a synthetic
  // invalidation from here, and its failure path re-enters the table via
  // Drop() — holding mu_ across the callback would self-deadlock.
  if (on_evict_) {
    for (const auto& [evicted_path, evicted_client] : evicted) {
      on_evict_(evicted_path, evicted_client);
    }
  }
}

std::vector<std::uint64_t> LeaseTable::Collect(const std::string& path,
                                               bool subtree,
                                               std::uint64_t exclude,
                                               std::uint64_t now) {
  std::vector<std::uint64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = path == "/" ? "/" : path + "/";
  auto it = watches_.find(path);
  if (it == watches_.end() && subtree) it = watches_.lower_bound(prefix);
  while (it != watches_.end()) {
    const bool exact = it->first == path;
    if (!exact) {
      if (!subtree || it->first.compare(0, prefix.size(), prefix) != 0) break;
    }
    for (const auto& [client, pos] : it->second) {
      if (client != exclude && pos->first > now) out.push_back(client);
      by_expiry_.erase(pos);
    }
    it = watches_.erase(it);
    if (exact && subtree && it == watches_.end()) {
      // `path` sorts before `path + "/"` but not necessarily adjacent to it
      // ("/a" < "/a.b" < "/a/"): reseek to the subtree range.
      it = watches_.lower_bound(prefix);
    } else if (exact && subtree && it->first.compare(0, prefix.size(), prefix) != 0) {
      it = watches_.lower_bound(prefix);
    } else if (exact && !subtree) {
      break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LeaseTable::Drop(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = watches_.begin(); it != watches_.end();) {
    const auto holder = it->second.find(client);
    if (holder != it->second.end()) {
      by_expiry_.erase(holder->second);
      it->second.erase(holder);
    }
    it = it->second.empty() ? watches_.erase(it) : std::next(it);
  }
}

std::size_t LeaseTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_expiry_.size();
}

bool LeaseTable::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t watches = 0;
  for (const auto& [path, holders] : watches_) {
    if (holders.empty()) return false;
    for (const auto& [client, pos] : holders) {
      if (pos->second.path != path || pos->second.client != client) {
        return false;
      }
      ++watches;
    }
  }
  // Every watch names its own entry, so equal counts leave no stale one.
  return watches == by_expiry_.size();
}

void LeaseTable::EraseLocked(ExpiryIndex::iterator pos) {
  const auto it = watches_.find(pos->second.path);
  it->second.erase(pos->second.client);
  if (it->second.empty()) watches_.erase(it);
  by_expiry_.erase(pos);
}

void LeaseTable::MakeRoomLocked(
    std::uint64_t now,
    std::vector<std::pair<std::string, std::uint64_t>>* evicted) {
  // The index runs soonest expiry first, so expired watches go before any
  // live one does.
  while (by_expiry_.size() >= kMaxWatches) {
    const auto soonest = by_expiry_.begin();
    if (soonest->first > now) {
      // A live watch lost its slot: its holder must be told to resync, or
      // the next mutation of that path would go silently unobserved until
      // the lease timeout.
      evicted->emplace_back(soonest->second.path, soonest->second.client);
    }
    EraseLocked(soonest);
  }
}

}  // namespace loco::core
