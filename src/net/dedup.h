// Bounded server-side request-deduplication window (idempotent replay).
//
// A client that retries a mutation after a timeout or a torn connection
// cannot know whether the original attempt was applied.  Request ids ride
// the TCP frame header already, so the server keeps a bounded window of
// recently executed mutations and *replays the cached response* instead of
// double-applying Create/Mkdir/Remove/Rename.
//
// Keying: raw request ids are minted per attempt by TcpChannel, so they are
// NOT stable across a retry.  The trace id is — net::Call stamps one per
// client operation and the resilient channel reuses it for every attempt —
// so the window keys on the exact bytes (trace_id, opcode, payload).  Two
// calls that share a trace id (the legs of one fan-out) must differ in
// opcode or payload or land on different servers, so they never collide; a
// retried or duplicated frame matches exactly.  The key is the literal byte
// string, not a hash: a 64-bit digest would let an unlucky (or adversarial)
// collision replay a *different* request's cached response as if it were
// this one — a silent cross-request data leak the window must rule out by
// construction (tests/net/dedup_test.cc covers the collision case).
//
// Concurrency: the first arrival of a key executes the handler; concurrent
// duplicates block on a condition variable until the owner completes, then
// replay the cached (code, payload).  A caller that must not block (the
// server's event loop) asks with Wait::kNo and is told the original is
// still running instead.  Completed entries are evicted FIFO once the window
// exceeds its capacity.
//
// A key can be a whole ~256 KiB batch frame, so the window touches its bytes
// as little as it can: Begin moves the caller's key in and hashes it once,
// outside the lock; the owner completes through the slot Begin handed it,
// without a lookup; and the eviction queue points at the map's own keys
// (which stay put when the map rehashes), found again by their stored hash.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "net/wire.h"

namespace loco::net {

class DedupWindow {
  // A map key: the request's exact bytes and their hash, computed once.
  struct StoredKey {
    std::string bytes;
    std::size_t hash = 0;
  };
  struct StoredKeyHash {
    std::size_t operator()(const StoredKey& k) const noexcept { return k.hash; }
  };
  struct StoredKeyEq {
    // Byte-exact: equal hashes never make two requests one.  An eviction
    // finds a key by the map's own copy, which the address test settles
    // without comparing the bytes.
    bool operator()(const StoredKey& a, const StoredKey& b) const noexcept {
      return &a == &b || (a.hash == b.hash && a.bytes == b.bytes);
    }
  };
  struct Entry {
    bool done = false;
    ErrCode code = ErrCode::kOk;
    std::string payload;
  };
  using Map = std::unordered_map<StoredKey, Entry, StoredKeyHash, StoredKeyEq>;

 public:
  // Completed entries retained.
  static constexpr std::size_t kCapacity = 1024;

  // `opcodes` selects which operations are deduplicated (mutations only;
  // reads are idempotent and not worth caching).
  explicit DedupWindow(std::vector<std::uint16_t> opcodes);

  bool Eligible(std::uint16_t opcode) const noexcept {
    return opcodes_.count(opcode) != 0;
  }

  // Stable identity of a request across retries and duplicated frames: the
  // exact bytes of (trace_id, opcode, payload).  Collision-free by
  // construction — two distinct requests can never share a key.
  static std::string Key(const wire::FrameHeader& header,
                         std::string_view payload);

  enum class Outcome {
    kExecute,  // first arrival: caller runs the handler, then Complete(slot)
    kReplay,   // duplicate: *code/*payload carry the cached response
    kRunning,  // Wait::kNo only: the original is still running; nothing
               // was inserted or copied
  };
  // Whether Begin may block until a running original completes.
  enum class Wait { kYes, kNo };
  // The entry a first arrival owns.  Valid until its Complete: only
  // completed entries are evicted, and map nodes stay put across rehashes.
  using Slot = Map::value_type*;
  Outcome Begin(std::string key, ErrCode* code, std::string* payload,
                Slot* slot, Wait wait = Wait::kYes);
  // Cache the owner's response (once per kExecute) and wake its duplicates.
  void Complete(Slot slot, ErrCode code, std::string_view payload);

  // Duplicates this window answered from its cache (the
  // rpc.tcp_server.dedup.replays counter sums every window in the process).
  std::uint64_t replays() const noexcept {
    return replays_.load(std::memory_order_relaxed);
  }

 private:
  const std::unordered_set<std::uint16_t> opcodes_;
  std::atomic<std::uint64_t> replays_{0};
  common::Counter* replays_metric_;
  std::mutex mu_;
  std::condition_variable cv_;
  Map entries_;
  std::deque<const StoredKey*> completed_;  // keys in entries_, oldest first
};

}  // namespace loco::net
