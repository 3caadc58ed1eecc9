// Deterministic, seed-driven fault injection for the TCP transport and the
// KV stores.
//
// LocoFS's loose coupling (SC '17 §3.4) deliberately accepts weakened
// distributed consistency: a crash between the file-inode write and the
// dirent append leaves a dangling dirent or an orphaned inode that must be
// detected and repaired out of band.  To reach those states on demand (and
// to prove the client's resilience layer against them) every daemon accepts
// a `--fault-spec` that provokes the failure modes of a real deployment:
//
//   seed=N          RNG seed; the same spec + seed yields the same fault
//                   sequence for a given arrival order (defaults to 1)
//   drop=P          swallow a decoded request frame with probability P
//   dup=P           deliver a decoded request frame twice
//   delay=P         stall a decoded request on the server before service
//                   (see delay_ms; the client side injects nothing)
//   delay_ms=N      duration of an injected stall (default 2 ms)
//   reset=P         tear down the connection instead of serving the frame
//   short_write=P   truncate the response mid-frame and drop the connection
//   crash_after=N   _exit(137) after decoding N request frames (0 = never);
//                   simulates kill -9 between a KV write and its successor
//   kv_put_fail=P   fail a KV Put/PatchValue with kIo
//   kv_fail_after=N all KV puts fail after N successes (torn multi-key
//                   sequences: earlier keys applied, later ones lost)
//   notify_drop=P   swallow an outbound kNotify push frame (its sequence
//                   number is still consumed, so the client sees a gap and
//                   resynchronizes)
//   notify_dup=P    send a kNotify push frame twice with the same sequence
//                   number (the client must discard the stale copy)
//   queue_full=P    treat the server's admission queue as full for this
//                   request (shed with kOverloaded regardless of real depth;
//                   docs/OVERLOAD.md)
//
// Probabilities are in [0, 1].  Every injected fault increments a
// `faults.injected.<kind>` counter so runs can attest what actually fired.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"

namespace loco::net {

struct FaultSpec {
  std::uint64_t seed = 1;
  double drop = 0.0;
  double dup = 0.0;
  double delay = 0.0;
  common::Nanos delay_ns = 2 * common::kMilli;
  double reset = 0.0;
  double short_write = 0.0;
  std::uint64_t crash_after = 0;
  double kv_put_fail = 0.0;
  std::uint64_t kv_fail_after = 0;
  double notify_drop = 0.0;
  double notify_dup = 0.0;
  double queue_full = 0.0;

  // Parse the comma-separated `key=value` grammar above.  Unknown keys and
  // out-of-range probabilities are kInvalid.
  static Result<FaultSpec> Parse(std::string_view text);

  // True if any fault can ever fire (daemons skip the hooks entirely when
  // the spec is inert).
  bool Armed() const noexcept;
};

// Thread-safe deterministic fault source.  One instance per process; the
// transport and the FaultyKv wrapper share it so `seed` governs the whole
// fault plane.  Decisions are drawn from one RNG under a mutex: for a fixed
// arrival order the sequence of fates is reproducible.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  // Fate of one decoded request frame (TcpServer calls this once per frame).
  struct FrameFate {
    bool drop = false;
    bool dup = false;
    bool reset = false;
    bool crash = false;              // caller must _exit after counting
    common::Nanos delay_ns = 0;      // stall before service when > 0
  };
  FrameFate OnServerFrame();

  // True if this response should be truncated mid-frame (conn then drops).
  bool ShortWriteResponse();

  // Fate of one outbound kNotify push frame (TcpServer calls this once per
  // push per session).
  struct NotifyFate {
    bool drop = false;
    bool dup = false;
  };
  NotifyFate OnNotifyFrame();

  // True if this KV Put/PatchValue should fail with kIo (FaultyKv hook).
  bool FailKvPut();

  // True if the server should pretend its admission queue is full for this
  // request and shed it with kOverloaded (TcpServer::AdmitWork hook).
  bool ForceQueueFull();

  const FaultSpec& spec() const noexcept { return spec_; }

 private:
  const FaultSpec spec_;
  std::mutex mu_;
  common::Rng rng_;
  std::uint64_t frames_ = 0;
  std::uint64_t kv_puts_ = 0;
  common::Counter* drop_count_;
  common::Counter* dup_count_;
  common::Counter* delay_count_;
  common::Counter* reset_count_;
  common::Counter* short_write_count_;
  common::Counter* crash_count_;
  common::Counter* kv_put_fail_count_;
  common::Counter* notify_drop_count_;
  common::Counter* notify_dup_count_;
  common::Counter* queue_full_count_;
};

}  // namespace loco::net
