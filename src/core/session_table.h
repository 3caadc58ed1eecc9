// File-session bookkeeping for the FMS housekeeping plane
// (docs/HOUSEKEEPING.md).
//
// A session records "client C has file (dir_uuid, name) open until
// now + ttl_ns".  Sessions ride the client id announced in the connection's
// hello: opens and creates register one implicitly, kFmsOpenSession
// registers one explicitly (optionally exclusive), and every RPC a client
// sends renews all of its sessions — the steady request/notify traffic *is*
// the heartbeat.  A client that vanishes stops renewing; its sessions are
// dropped the moment its last TCP connection dies (TcpServer disconnect
// callback) or, failing that, when the GC sweep finds them expired.  Either
// way a crashed client cannot pin a file forever.
//
// The table is bounded: at most `max_sessions` live entries.  When a
// registration would exceed the bound, expired sessions are swept first; if
// the table is still full the soonest-to-expire session is evicted (the
// holder merely loses exclusivity protection early, which is the same
// outcome as its TTL lapsing).
//
// Thread safety: all methods take an internal mutex; FMS handlers call in
// from many TcpServer workers at once and the GC thread sweeps concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/layout.h"

namespace loco::core {

class SessionTable {
 public:
  struct Options {
    // Session term; renewed by any RPC from the holding client.
    std::uint64_t ttl_ns = 60ull * 1'000'000'000;
    // Upper bound on live (file, client) sessions.
    std::size_t max_sessions = 65536;
    // Metric name prefix, e.g. "server.fms1.sessions".  Empty disables
    // metric registration (unit tests).
    std::string metrics_prefix;
  };

  struct Entry {
    fs::Uuid dir_uuid;
    std::string name;
    std::uint64_t client = 0;
    std::uint64_t expiry = 0;
    bool exclusive = false;
  };

  SessionTable() : SessionTable(Options()) {}
  explicit SessionTable(Options options);

  // Register (or renew) `client`'s session on (dir_uuid, name) at
  // steady-clock instant `now`.  Returns false when the exclusivity contract
  // refuses it: an exclusive open while any *other* client holds a live
  // session, or any open while another client holds a live exclusive one.
  bool Open(fs::Uuid dir_uuid, const std::string& name, std::uint64_t client,
            bool exclusive, std::uint64_t now);

  // Drop `client`'s session on one file.  Returns false if none existed.
  bool Close(fs::Uuid dir_uuid, const std::string& name, std::uint64_t client);

  // Renew every session held by `client` (called on any RPC it sends).
  // O(log clients): records the client's last-seen instant; liveness checks
  // treat max(open expiry, last_seen + ttl) as the effective expiry, so the
  // renewal is lazy instead of walking every session the client holds on
  // every RPC it sends.
  void Touch(std::uint64_t client, std::uint64_t now);

  // Drop every session of `client` (its connections are gone).  Returns the
  // number dropped.  Scans the whole table: it runs only on disconnect.
  std::size_t DropClient(std::uint64_t client);

  // Drop every session on one file (the file was removed or purged).
  void DropFile(fs::Uuid dir_uuid, const std::string& name);

  // Drop sessions whose TTL lapsed (GC sweep).  Returns the number dropped.
  std::size_t SweepExpired(std::uint64_t now);

  // Any live session on (dir_uuid, name) at `now`?
  bool HasLiveSession(fs::Uuid dir_uuid, const std::string& name,
                      std::uint64_t now) const;

  std::vector<Entry> List() const;
  std::size_t size() const;
  std::uint64_t ttl_ns() const noexcept { return options_.ttl_ns; }

 private:
  // One session: (directory uuid, file name, holding client).  Ordered by
  // file first, so the holders of one file are one contiguous range.
  struct Key {
    std::uint64_t dir = 0;
    std::string name;
    std::uint64_t client = 0;
  };
  // A whole file: equal_range over its holders without copying the name.
  struct FileRef {
    std::uint64_t dir = 0;
    std::string_view name;
  };
  struct KeyLess {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const;
    bool operator()(const Key& a, const FileRef& b) const;
    bool operator()(const FileRef& a, const Key& b) const;
  };
  struct Holder {
    std::uint64_t expiry = 0;
    bool exclusive = false;
  };
  using Map = std::map<Key, Holder, KeyLess>;
  struct ClientState {
    std::size_t sessions = 0;
    // Instant of the client's most recent RPC; 0 before the first.  Every
    // expiry is at least one TTL, so 0 never extends one.
    std::uint64_t last_seen = 0;
  };

  // Caller holds mu_.  Removes one session; returns the next.
  Map::iterator EraseLocked(Map::iterator it);
  // Caller holds mu_.  Drops every expired session; returns how many.
  std::size_t SweepLocked(std::uint64_t now);
  // Caller holds mu_.  Frees at least one slot: sweep expired, then evict
  // the soonest-to-expire live session.
  void MakeRoomLocked(std::uint64_t now);
  // Caller holds mu_.  The session's effective expiry: its own term or the
  // holder's last-seen instant plus one TTL, whichever is later.
  std::uint64_t ExpiryLocked(std::uint64_t client, const Holder& h) const;

  const Options options_;
  mutable std::mutex mu_;
  // Every session, its holder state inline: the table's one index.
  Map sessions_;
  // client -> session count and last RPC, for clients holding sessions
  // (erased with the client's last session).  Touch writes one timestamp
  // here instead of renewing each session.
  std::map<std::uint64_t, ClientState> clients_;

  // sessions.* counters (null when metrics_prefix is empty).
  common::Counter* opened_ = nullptr;
  common::Counter* closed_ = nullptr;
  common::Counter* pruned_ = nullptr;    // disconnect-driven drops
  common::Counter* expired_ = nullptr;   // TTL-sweep drops
  common::Counter* rejected_ = nullptr;  // exclusivity refusals
  common::MetricsRegistry::GaugeHandle live_gauge_;
};

}  // namespace loco::core
