#include "core/session_table.h"

#include <algorithm>
#include <tuple>

namespace loco::core {

bool SessionTable::KeyLess::operator()(const Key& a, const Key& b) const {
  return std::tie(a.dir, a.name, a.client) < std::tie(b.dir, b.name, b.client);
}

bool SessionTable::KeyLess::operator()(const Key& a, const FileRef& b) const {
  return a.dir != b.dir ? a.dir < b.dir : std::string_view(a.name) < b.name;
}

bool SessionTable::KeyLess::operator()(const FileRef& a, const Key& b) const {
  return a.dir != b.dir ? a.dir < b.dir : a.name < std::string_view(b.name);
}

SessionTable::SessionTable(Options options) : options_(std::move(options)) {
  if (!options_.metrics_prefix.empty()) {
    auto& registry = common::MetricsRegistry::Default();
    const std::string& p = options_.metrics_prefix;
    opened_ = &registry.GetCounter(p + ".opened");
    closed_ = &registry.GetCounter(p + ".closed");
    pruned_ = &registry.GetCounter(p + ".pruned");
    expired_ = &registry.GetCounter(p + ".expired");
    rejected_ = &registry.GetCounter(p + ".rejected");
    live_gauge_ = registry.RegisterGauge(p + ".live", [this] {
      return static_cast<std::uint64_t>(size());
    });
  }
}

bool SessionTable::Open(fs::Uuid dir_uuid, const std::string& name,
                        std::uint64_t client, bool exclusive,
                        std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  bool fresh = true;
  const auto [first, last] =
      sessions_.equal_range(FileRef{dir_uuid.raw(), name});
  for (auto it = first; it != last; ++it) {
    const std::uint64_t holder = it->first.client;
    if (holder == client) {
      fresh = false;
      continue;
    }
    if (ExpiryLocked(holder, it->second) <= now) continue;
    if (exclusive || it->second.exclusive) {
      if (rejected_) rejected_->Add();
      return false;
    }
  }
  if (fresh && sessions_.size() >= options_.max_sessions) MakeRoomLocked(now);
  Holder& holder = sessions_[Key{dir_uuid.raw(), name, client}];
  holder.expiry = now + options_.ttl_ns;
  holder.exclusive = exclusive;
  if (fresh) {
    ++clients_[client].sessions;
    if (opened_) opened_->Add();
  }
  return true;
}

bool SessionTable::Close(fs::Uuid dir_uuid, const std::string& name,
                         std::uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(Key{dir_uuid.raw(), name, client});
  if (it == sessions_.end()) return false;
  EraseLocked(it);
  if (closed_) closed_->Add();
  return true;
}

void SessionTable::Touch(std::uint64_t client, std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  // The lazy renewal: one timestamp write covers every session the client
  // holds.  Walking them eagerly made each RPC cost O(sessions held), which
  // for a client mid-ingest (one implicit session per created file) turned
  // the per-op metadata path quadratic.
  auto it = clients_.find(client);
  if (it != clients_.end()) it->second.last_seen = now;
}

std::size_t SessionTable::DropClient(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (clients_.find(client) == clients_.end()) return 0;
  std::size_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->first.client == client) {
      it = EraseLocked(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (pruned_) pruned_->Add(dropped);
  return dropped;
}

void SessionTable::DropFile(fs::Uuid dir_uuid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, last] = sessions_.equal_range(FileRef{dir_uuid.raw(), name});
  std::size_t dropped = 0;
  while (it != last) {
    it = EraseLocked(it);
    ++dropped;
  }
  if (closed_ && dropped > 0) closed_->Add(dropped);
}

std::size_t SessionTable::SweepExpired(std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t dropped = SweepLocked(now);
  if (expired_) expired_->Add(dropped);
  return dropped;
}

bool SessionTable::HasLiveSession(fs::Uuid dir_uuid, const std::string& name,
                                  std::uint64_t now) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [first, last] =
      sessions_.equal_range(FileRef{dir_uuid.raw(), name});
  return std::any_of(first, last, [this, now](const auto& session) {
    return ExpiryLocked(session.first.client, session.second) > now;
  });
}

std::vector<SessionTable::Entry> SessionTable::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(sessions_.size());
  for (const auto& [key, holder] : sessions_) {
    out.push_back(Entry{fs::Uuid(key.dir), key.name, key.client,
                        ExpiryLocked(key.client, holder), holder.exclusive});
  }
  return out;
}

std::size_t SessionTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionTable::Map::iterator SessionTable::EraseLocked(Map::iterator it) {
  auto c = clients_.find(it->first.client);
  if (c != clients_.end() && --c->second.sessions == 0) {
    clients_.erase(c);  // no sessions left; the heartbeat with it
  }
  return sessions_.erase(it);
}

std::size_t SessionTable::SweepLocked(std::uint64_t now) {
  std::size_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (ExpiryLocked(it->first.client, it->second) <= now) {
      it = EraseLocked(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::uint64_t SessionTable::ExpiryLocked(std::uint64_t client,
                                         const Holder& h) const {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return h.expiry;
  return std::max(h.expiry, it->second.last_seen + options_.ttl_ns);
}

void SessionTable::MakeRoomLocked(std::uint64_t now) {
  // Sweep expired sessions first.
  const std::size_t swept = SweepLocked(now);
  if (expired_ && swept > 0) expired_->Add(swept);
  if (sessions_.size() < options_.max_sessions) return;
  // Still full: evict the soonest-to-expire live session.
  auto victim = sessions_.end();
  std::uint64_t soonest = ~0ull;
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    const std::uint64_t expiry = ExpiryLocked(it->first.client, it->second);
    if (expiry < soonest) {
      soonest = expiry;
      victim = it;
    }
  }
  if (victim != sessions_.end()) {
    EraseLocked(victim);
    if (expired_) expired_->Add();
  }
}

}  // namespace loco::core
