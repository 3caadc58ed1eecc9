// Client-side resilience: retry with full-jitter backoff plus a per-endpoint
// circuit breaker with half-open probes.
//
// ResilientChannel decorates any inline-completing Channel (net::TcpChannel,
// net::InProcTransport).  Every call keeps ONE trace id across all attempts
// — net::Call stamps it before the channel sees the meta, and CallAsync
// stamps one here — so the server-side dedup window (net/dedup.h) recognizes
// a retried mutation and replays the cached response instead of applying it
// twice.  That makes retry safe for mutations, not just reads.
//
// A fan-out keeps the inner transport's concurrency: each leg passes its own
// endpoint's breaker, the first attempts of all admitted legs go out together
// through the inner FanOutAsync, and only the legs that failed with a
// retryable code enter the retry loop below, one after another.  A single
// call is a one-leg fan-out.
//
// Failure handling per endpoint:
//   * kUnavailable / kTimeout are retryable (the peer may be restarting);
//     anything else came from a live server and is returned immediately.
//   * kOverloaded is also retryable, but it came from a live server that is
//     shedding load: it never counts against the breaker, and the backoff
//     before the next attempt honors the server's retry-after hint (the
//     response payload, docs/OVERLOAD.md) instead of the jitter schedule.
//   * kBreakerThreshold consecutive retryable failures open the breaker:
//     calls fail fast with kUnavailable without touching the wire, so a
//     stampede of doomed connects never piles onto a dead daemon.
//   * After kBreakerOpenNs the breaker goes half-open: exactly one probe
//     call is let through; success closes the breaker, failure re-opens it.
//
// Two global guards bound what retrying may amplify:
//   * One deadline budget covers ALL attempts of a call: the caller's
//     CallMeta deadline, else the inner channel's call_deadline_ns() (a
//     mount's TcpChannelOptions::call_deadline_ns).  The first attempt gets
//     the full budget, later attempts only what is left of it, and the loop
//     stops once it is spent — a 3-attempt call can never take 3x its
//     deadline.
//   * A token-bucket retry budget (kRetryBudgetRatio per issued call,
//     capped) gates every retry: when sustained failure drains the bucket,
//     calls fail after their first attempt (rpc.resilient.budget_exhausted)
//     instead of multiplying offered load against a struggling cluster.
//
// The notify plane short-circuits the probe wait: when the DMS broadcasts a
// kNotifyServerUp (a restarted daemon announced itself), the client calls
// NotifyServerUp(node) and the breaker closes immediately — the next call
// goes straight to the wire instead of waiting out kBreakerOpenNs.
//
// Metrics: rpc.resilient.retries, rpc.resilient.fast_fails,
// rpc.resilient.breaker_opens, rpc.resilient.gossip_resets,
// rpc.resilient.budget_exhausted.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "net/rpc.h"

namespace loco::net {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class ResilientChannel final : public Channel {
 public:
  // Total tries per call (1 = no retry).
  static constexpr int kMaxAttempts = 3;
  // Full-jitter backoff before attempt N+1: sleep uniform in
  // [0, min(cap, base * 2^N)], drawn from a stream seeded per channel
  // instance, so clients that failed together do not retry in lockstep.
  static constexpr common::Nanos kBackoffBaseNs = 5 * common::kMilli;
  static constexpr common::Nanos kBackoffCapNs = 200 * common::kMilli;
  // Consecutive retryable failures that open the breaker.
  static constexpr int kBreakerThreshold = 5;
  // How long an open breaker fails fast before probing.
  static constexpr common::Nanos kBreakerOpenNs = 500 * common::kMilli;
  // Retry token bucket: each issued call deposits kRetryBudgetRatio tokens
  // (bounded by kRetryBudgetCap; the bucket starts full) and each retry
  // spends one, so sustained failure settles at ~10% retry amplification.
  static constexpr double kRetryBudgetRatio = 0.1;
  static constexpr double kRetryBudgetCap = 50.0;

  // `inner` must complete calls inline (all project transports do) and must
  // outlive this channel.
  explicit ResilientChannel(Channel* inner);

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override;
  void CallAsyncMeta(NodeId server, std::uint16_t opcode, std::string payload,
                     const CallMeta& meta,
                     std::function<void(RpcResponse)> done) override;
  void FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                   std::function<void(std::vector<RpcResponse>)> done) override;

  BreakerState breaker_state(NodeId server);

  // Breaker gossip: `server` just announced it is up — close its breaker so
  // traffic resumes immediately (no-op when the breaker is already closed).
  void NotifyServerUp(NodeId server);

 private:
  struct Breaker {
    int consecutive_failures = 0;
    common::Nanos open_until = 0;  // CpuTimer::Now() scale; 0 = closed
    bool probing = false;          // a half-open probe is in flight
  };

  // Admission decision made before an attempt touches the wire.
  enum class Admit { kAllow, kProbe, kFastFail };
  Admit AdmitCall(NodeId server);
  void RecordOutcome(NodeId server, bool success, bool was_probe);
  // Run `legs` through the inner channel as one fan-out, which must complete
  // inline.
  std::vector<RpcResponse> CallInner(std::vector<CallLeg> legs,
                                     const CallMeta& meta);
  // Attempts 1.. of a leg whose first attempt failed retryably with `last`,
  // each under what remains of the call's deadline budget; returns the
  // final response.
  RpcResponse RetryLeg(const CallLeg& leg, CallMeta meta,
                       common::Nanos deadline_abs, RpcResponse last);
  common::Nanos JitterBackoff(int attempt);
  // Token bucket: deposit for one issued call / withdraw for one retry
  // (false = bucket empty, the retry must not happen).
  void DepositRetryToken();
  bool SpendRetryToken();

  Channel* inner_;
  std::mutex mu_;  // guards breakers_, rng_ and retry_tokens_
  std::unordered_map<NodeId, Breaker> breakers_;
  common::Rng rng_;
  double retry_tokens_;
  common::Counter* retries_;
  common::Counter* fast_fails_;
  common::Counter* breaker_opens_;
  common::Counter* gossip_resets_;
  common::Counter* budget_exhausted_;
};

}  // namespace loco::net
