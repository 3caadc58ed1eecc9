#include "net/resilience.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/codec.h"

namespace loco::net {

namespace {

bool Retryable(ErrCode code) noexcept {
  return code == ErrCode::kUnavailable || code == ErrCode::kTimeout ||
         code == ErrCode::kOverloaded;
}

// The kOverloaded retry-after hint (u64 nanoseconds); 0 when the payload is
// absent or malformed (the caller falls back to jittered backoff).
common::Nanos RetryAfterHint(const std::string& payload) {
  common::Reader r(payload);
  const std::uint64_t hint = r.GetU64();
  if (!r.ok()) return 0;
  return static_cast<common::Nanos>(hint);
}

// A jitter seed no other channel shares: process id, wall clock and a
// process-wide count, mixed the way core::Connect mints client ids.
std::uint64_t JitterSeed() {
  static std::atomic<std::uint64_t> counter{0};
  return (static_cast<std::uint64_t>(::getpid()) << 48) ^
         static_cast<std::uint64_t>(common::WallClockNs()) ^
         counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResilientChannel::ResilientChannel(Channel* inner)
    : inner_(inner), rng_(JitterSeed()), retry_tokens_(kRetryBudgetCap) {
  auto& reg = common::MetricsRegistry::Default();
  retries_ = &reg.GetCounter("rpc.resilient.retries");
  fast_fails_ = &reg.GetCounter("rpc.resilient.fast_fails");
  breaker_opens_ = &reg.GetCounter("rpc.resilient.breaker_opens");
  gossip_resets_ = &reg.GetCounter("rpc.resilient.gossip_resets");
  budget_exhausted_ = &reg.GetCounter("rpc.resilient.budget_exhausted");
}

void ResilientChannel::NotifyServerUp(NodeId server) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(server);
  if (it == breakers_.end()) return;
  Breaker& b = it->second;
  if (b.consecutive_failures == 0 && b.open_until == 0 && !b.probing) return;
  b.consecutive_failures = 0;
  b.open_until = 0;
  b.probing = false;
  gossip_resets_->Add();
}

void ResilientChannel::CallAsync(NodeId server, std::uint16_t opcode,
                                 std::string payload,
                                 std::function<void(RpcResponse)> done) {
  // Stamp the trace id here so every retry below shares it — the server's
  // dedup window keys on it.
  CallMeta meta;
  meta.trace_id = NextTraceId();
  CallAsyncMeta(server, opcode, std::move(payload), meta, std::move(done));
}

void ResilientChannel::CallAsyncMeta(NodeId server, std::uint16_t opcode,
                                     std::string payload, const CallMeta& meta,
                                     std::function<void(RpcResponse)> done) {
  std::vector<CallLeg> legs;
  legs.push_back(CallLeg{server, opcode, std::move(payload)});
  FanOutAsync(std::move(legs), meta, [&done](std::vector<RpcResponse> out) {
    done(std::move(out.front()));
  });
}

void ResilientChannel::FanOutAsync(
    std::vector<CallLeg> legs, const CallMeta& meta,
    std::function<void(std::vector<RpcResponse>)> done) {
  CallMeta attempt_meta = meta;
  if (attempt_meta.trace_id == 0) attempt_meta.trace_id = NextTraceId();
  // ONE deadline budget covers every attempt of every leg: each retry is
  // stamped with what remains, so kMaxAttempts can never stretch a call past
  // its total.
  const common::Nanos total_ns =
      meta.deadline_ns > 0 ? meta.deadline_ns : inner_->call_deadline_ns();
  const common::Nanos deadline_abs = common::CpuTimer::Now() + total_ns;
  for (std::size_t i = 0; i < legs.size(); ++i) DepositRetryToken();
  std::vector<RpcResponse> out(legs.size());
  const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
  if (remaining <= 0) {
    for (RpcResponse& r : out) r = RpcResponse{ErrCode::kTimeout, {}};
    done(std::move(out));
    return;
  }
  attempt_meta.deadline_ns = remaining;

  // Attempt 0: every leg its breaker admits goes out in one inner fan-out.
  std::vector<Admit> admits(legs.size());
  std::vector<CallLeg> first;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    admits[i] = AdmitCall(legs[i].server);
    if (admits[i] == Admit::kFastFail) {
      fast_fails_->Add();
      out[i] = RpcResponse{ErrCode::kUnavailable, {}};
    } else {
      first.push_back(legs[i]);
    }
  }
  std::vector<RpcResponse> replies = CallInner(std::move(first), attempt_meta);
  auto reply = replies.begin();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (admits[i] == Admit::kFastFail) continue;
    out[i] = std::move(*reply++);
    // kOverloaded is retryable but comes from a live, answering server: it
    // never counts toward opening the breaker.
    RecordOutcome(legs[i].server,
                  !Retryable(out[i].code) || out[i].code == ErrCode::kOverloaded,
                  admits[i] == Admit::kProbe);
  }

  // Attempts 1..: only the legs that failed retryably, each on its own.
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (Retryable(out[i].code)) {
      out[i] = RetryLeg(legs[i], attempt_meta, deadline_abs, std::move(out[i]));
    }
  }
  done(std::move(out));
}

std::vector<RpcResponse> ResilientChannel::CallInner(std::vector<CallLeg> legs,
                                                     const CallMeta& meta) {
  std::vector<RpcResponse> out;
  if (legs.empty()) return out;
  bool got = false;
  inner_->FanOutAsync(std::move(legs), meta,
                      [&](std::vector<RpcResponse> replies) {
                        out = std::move(replies);
                        got = true;
                      });
  // The callback writes through references to this frame, so a transport
  // that completed later would corrupt the stack: the inner channel must
  // complete inline (every project transport but the simulator does).
  assert(got && "ResilientChannel: inner channel must complete inline");
  (void)got;
  return out;
}

RpcResponse ResilientChannel::RetryLeg(const CallLeg& leg, CallMeta meta,
                                       common::Nanos deadline_abs,
                                       RpcResponse last) {
  for (int attempt = 1; attempt < kMaxAttempts; ++attempt) {
    common::Nanos sleep_ns = 0;
    if (last.code == ErrCode::kOverloaded) {
      // The shedding server said when to come back; believe it.
      sleep_ns = RetryAfterHint(last.payload);
    }
    if (sleep_ns <= 0) sleep_ns = JitterBackoff(attempt - 1);
    sleep_ns = std::min(sleep_ns, deadline_abs - common::CpuTimer::Now());
    if (sleep_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
    }
    const common::Nanos remaining = deadline_abs - common::CpuTimer::Now();
    if (remaining <= 0) break;
    meta.deadline_ns = remaining;
    const Admit admit = AdmitCall(leg.server);
    if (admit == Admit::kFastFail) {
      fast_fails_->Add();
      last = RpcResponse{ErrCode::kUnavailable, {}};
      continue;
    }
    if (!SpendRetryToken()) {
      // Sustained failure drained the bucket: stop amplifying load and
      // surface the last attempt's verdict.
      budget_exhausted_->Add();
      break;
    }
    retries_->Add();
    RpcResponse resp = std::move(CallInner({leg}, meta).front());
    const bool failed = Retryable(resp.code);
    RecordOutcome(leg.server, !failed || resp.code == ErrCode::kOverloaded,
                  admit == Admit::kProbe);
    if (!failed) return resp;
    last = std::move(resp);
  }
  return last;
}

void ResilientChannel::DepositRetryToken() {
  std::lock_guard<std::mutex> lock(mu_);
  retry_tokens_ = std::min(kRetryBudgetCap, retry_tokens_ + kRetryBudgetRatio);
}

bool ResilientChannel::SpendRetryToken() {
  std::lock_guard<std::mutex> lock(mu_);
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

ResilientChannel::Admit ResilientChannel::AdmitCall(NodeId server) {
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[server];
  if (b.open_until == 0) return Admit::kAllow;
  const common::Nanos now = common::CpuTimer::Now();
  if (now < b.open_until) return Admit::kFastFail;
  // Open interval elapsed: admit exactly one probe; everyone else keeps
  // failing fast until the probe reports.
  if (b.probing) return Admit::kFastFail;
  b.probing = true;
  return Admit::kProbe;
}

void ResilientChannel::RecordOutcome(NodeId server, bool success,
                                     bool was_probe) {
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[server];
  if (was_probe) b.probing = false;
  if (success) {
    b.consecutive_failures = 0;
    b.open_until = 0;
    return;
  }
  ++b.consecutive_failures;
  if (was_probe || b.consecutive_failures >= kBreakerThreshold) {
    if (b.open_until == 0) breaker_opens_->Add();
    b.open_until = common::CpuTimer::Now() + kBreakerOpenNs;
  }
}

common::Nanos ResilientChannel::JitterBackoff(int attempt) {
  common::Nanos ceiling = kBackoffBaseNs;
  for (int i = 0; i < attempt && ceiling < kBackoffCapNs; ++i) ceiling *= 2;
  ceiling = std::min(ceiling, kBackoffCapNs);
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<common::Nanos>(
      rng_.Uniform(static_cast<std::uint64_t>(ceiling) + 1));
}

BreakerState ResilientChannel::breaker_state(NodeId server) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(server);
  if (it == breakers_.end() || it->second.open_until == 0) {
    return BreakerState::kClosed;
  }
  return common::CpuTimer::Now() < it->second.open_until ? BreakerState::kOpen
                                                         : BreakerState::kHalfOpen;
}

}  // namespace loco::net
