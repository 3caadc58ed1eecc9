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
// replay the cached (code, payload).  Completed entries are evicted FIFO
// once the window exceeds its capacity.  The map holds each key once: the
// eviction queue points at the map's own key strings, which stay put when
// the map rehashes (a key can be a whole ~256 KiB batch frame).
#pragma once

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
 public:
  struct Options {
    std::size_t capacity = 1024;  // completed entries retained
  };

  // `opcodes` selects which operations are deduplicated (mutations only;
  // reads are idempotent and not worth caching).
  explicit DedupWindow(std::vector<std::uint16_t> opcodes)
      : DedupWindow(std::move(opcodes), Options()) {}
  DedupWindow(std::vector<std::uint16_t> opcodes, Options options);

  bool Eligible(std::uint16_t opcode) const noexcept {
    return opcodes_.count(opcode) != 0;
  }

  // Stable identity of a request across retries and duplicated frames: the
  // exact bytes of (trace_id, opcode, payload).  Collision-free by
  // construction — two distinct requests can never share a key.
  static std::string Key(const wire::FrameHeader& header,
                         std::string_view payload);

  enum class Outcome {
    kExecute,  // first arrival: caller runs the handler, must call Complete
    kReplay,   // duplicate: *code/*payload carry the cached response
  };
  Outcome Begin(const std::string& key, ErrCode* code, std::string* payload);
  void Complete(const std::string& key, ErrCode code, std::string_view payload);

  std::uint64_t replays() const noexcept { return replays_->value(); }

 private:
  struct Entry {
    bool done = false;
    ErrCode code = ErrCode::kOk;
    std::string payload;
  };

  const std::unordered_set<std::uint16_t> opcodes_;
  const Options options_;
  common::Counter* replays_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> entries_;
  std::deque<const std::string*> completed_;  // keys in entries_, oldest first
};

}  // namespace loco::net
