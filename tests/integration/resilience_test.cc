// net::ResilientChannel — retry, circuit breaker, half-open probes, and
// end-to-end exactly-once mutation replay against a faulty TcpServer with a
// DedupWindow (docs/FAULTS.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/codec.h"
#include "core/dms.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "net/dedup.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace loco::net {
namespace {

constexpr std::uint16_t kEchoOp = 42;

// Inner channel whose outcomes are scripted per attempt (kOk echoes the
// payload back).  Completes inline like every project transport.
class ScriptedChannel final : public Channel {
 public:
  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override {
    CallAsyncMeta(server, opcode, std::move(payload), CallMeta{},
                  std::move(done));
  }

  void CallAsyncMeta(NodeId server, std::uint16_t opcode, std::string payload,
                     const CallMeta& meta,
                     std::function<void(RpcResponse)> done) override {
    (void)server;
    (void)opcode;
    ++attempts;
    trace_ids.push_back(meta.trace_id);
    deadlines.push_back(meta.deadline_ns);
    RpcResponse resp;
    if (!script.empty()) {
      resp.code = script.front();
      script.pop_front();
    }
    if (resp.ok()) resp.payload = std::move(payload);
    if (resp.code == ErrCode::kOverloaded) resp.payload = overloaded_payload;
    done(std::move(resp));
  }

  std::deque<ErrCode> script;  // per-attempt outcome; exhausted = kOk
  int attempts = 0;
  std::vector<std::uint64_t> trace_ids;
  std::vector<common::Nanos> deadlines;    // meta.deadline_ns per attempt
  std::string overloaded_payload;          // attached to kOverloaded replies
};

RpcResponse BlockingCall(Channel& channel, NodeId server, std::string payload) {
  RpcResponse out;
  channel.CallAsync(server, kEchoOp, std::move(payload),
                    [&out](RpcResponse resp) { out = std::move(resp); });
  return out;
}

// A kOverloaded retry-after hint of `ns` (the server's reply payload): a
// 1 ns hint lets a test retry at once instead of sleeping out the jitter.
std::string RetryAfter(common::Nanos ns) {
  common::Writer hint;
  hint.PutU64(static_cast<std::uint64_t>(ns));
  return hint.Take();
}

// Fail calls to `server` until its breaker opens; every attempt fails, so
// that takes exactly kBreakerThreshold attempts.
void OpenBreaker(ResilientChannel& channel, NodeId server) {
  for (int i = 0; i < ResilientChannel::kBreakerThreshold &&
                  channel.breaker_state(server) != BreakerState::kOpen;
       ++i) {
    EXPECT_EQ(BlockingCall(channel, server, "x").code, ErrCode::kUnavailable);
  }
  ASSERT_EQ(channel.breaker_state(server), BreakerState::kOpen);
}

TEST(ResilientChannelTest, RetriesRetryableFailuresUntilSuccess) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kUnavailable, ErrCode::kTimeout, ErrCode::kOk};
  ResilientChannel channel(&inner);

  const RpcResponse resp = BlockingCall(channel, 7, "hello");
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload, "hello");
  EXPECT_EQ(inner.attempts, 3);
}

TEST(ResilientChannelTest, GivesUpAfterMaxAttempts) {
  ScriptedChannel inner;
  for (int i = 0; i <= ResilientChannel::kMaxAttempts; ++i) {
    inner.script.push_back(ErrCode::kUnavailable);
  }
  ResilientChannel channel(&inner);

  const RpcResponse resp = BlockingCall(channel, 7, "x");
  EXPECT_EQ(resp.code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, ResilientChannel::kMaxAttempts);
}

TEST(ResilientChannelTest, NonRetryableErrorsReturnImmediately) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kNotFound};
  ResilientChannel channel(&inner);

  const RpcResponse resp = BlockingCall(channel, 7, "x");
  EXPECT_EQ(resp.code, ErrCode::kNotFound);
  EXPECT_EQ(inner.attempts, 1);  // a live server answered; don't hammer it
}

TEST(ResilientChannelTest, OneTraceIdAcrossAllAttempts) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kTimeout, ErrCode::kTimeout, ErrCode::kOk};
  ResilientChannel channel(&inner);

  ASSERT_TRUE(BlockingCall(channel, 7, "x").ok());
  ASSERT_EQ(inner.trace_ids.size(), 3u);
  EXPECT_NE(inner.trace_ids[0], 0u);  // stamped when the caller didn't
  EXPECT_EQ(inner.trace_ids[0], inner.trace_ids[1]);
  EXPECT_EQ(inner.trace_ids[1], inner.trace_ids[2]);
}

TEST(ResilientChannelTest, BreakerOpensAndFailsFast) {
  ScriptedChannel inner;
  for (int i = 0; i < 100; ++i) inner.script.push_back(ErrCode::kUnavailable);
  ResilientChannel channel(&inner);

  OpenBreaker(channel, 7);
  const int attempts_at_open = inner.attempts;
  EXPECT_EQ(attempts_at_open, ResilientChannel::kBreakerThreshold);

  // Fast-fail: the doomed endpoint is not touched again while the breaker
  // is open (kBreakerOpenNs outlasts these calls' backoff sleeps).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  }
  EXPECT_EQ(inner.attempts, attempts_at_open);

  // Breakers are per endpoint: node 8 is unaffected.
  inner.script.clear();
  EXPECT_TRUE(BlockingCall(channel, 8, "y").ok());
  EXPECT_EQ(channel.breaker_state(8), BreakerState::kClosed);
}

// Sleep until a breaker opened now has gone half-open.
void SleepPastBreakerOpen() {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(ResilientChannel::kBreakerOpenNs) +
      std::chrono::milliseconds(20));
}

TEST(ResilientChannelTest, HalfOpenProbeClosesBreakerOnSuccess) {
  ScriptedChannel inner;
  for (int i = 0; i < ResilientChannel::kBreakerThreshold; ++i) {
    inner.script.push_back(ErrCode::kUnavailable);
  }
  ResilientChannel channel(&inner);

  OpenBreaker(channel, 7);
  SleepPastBreakerOpen();
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kHalfOpen);
  // Script is exhausted, so the probe succeeds and the breaker closes.
  EXPECT_TRUE(BlockingCall(channel, 7, "probe").ok());
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kClosed);
  EXPECT_TRUE(BlockingCall(channel, 7, "after").ok());
}

TEST(ResilientChannelTest, HalfOpenProbeFailureReopensBreaker) {
  ScriptedChannel inner;
  for (int i = 0; i <= ResilientChannel::kBreakerThreshold; ++i) {
    inner.script.push_back(ErrCode::kUnavailable);
  }
  ResilientChannel channel(&inner);

  OpenBreaker(channel, 7);
  SleepPastBreakerOpen();
  // Exactly one probe reaches the wire; its failure re-opens the breaker,
  // so the call's retries fail fast.
  EXPECT_EQ(BlockingCall(channel, 7, "probe").code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, ResilientChannel::kBreakerThreshold + 1);
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kOpen);
  const int attempts = inner.attempts;
  EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, attempts);  // re-opened: fast fail again
}

// Inner channel that burns real time failing — models a peer that accepts
// the connection but never answers inside the attempt's deadline.
class SlowFailChannel final : public Channel {
 public:
  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override {
    CallAsyncMeta(server, opcode, std::move(payload), CallMeta{},
                  std::move(done));
  }
  void CallAsyncMeta(NodeId, std::uint16_t, std::string, const CallMeta& meta,
                     std::function<void(RpcResponse)> done) override {
    ++attempts;
    deadlines.push_back(meta.deadline_ns);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    done(RpcResponse{ErrCode::kTimeout, {}});
  }

  int attempts = 0;
  std::vector<common::Nanos> deadlines;
};

// Regression: ONE deadline budget covers every attempt.  Before the fix
// each attempt got the full call deadline, so a kMaxAttempts call against a
// 30ms-per-attempt failure could run ~kMaxAttempts x its 50ms budget.
TEST(ResilientChannelTest, OneDeadlineBudgetBoundsAllAttempts) {
  SlowFailChannel inner;
  ResilientChannel channel(&inner);

  CallMeta meta;
  meta.deadline_ns = 50 * common::kMilli;
  const common::Nanos start = common::CpuTimer::Now();
  RpcResponse resp;
  channel.CallAsyncMeta(7, kEchoOp, "x", meta,
                        [&](RpcResponse r) { resp = std::move(r); });
  const common::Nanos elapsed = common::CpuTimer::Now() - start;

  EXPECT_EQ(resp.code, ErrCode::kTimeout);
  // Two 30ms attempts exhaust the 50ms budget; later attempts never run and
  // the wall clock stays near the budget, not kMaxAttempts x budget.
  EXPECT_LE(inner.attempts, 2);
  EXPECT_GE(inner.attempts, 1);
  EXPECT_LT(elapsed, 150 * common::kMilli);
  // The first attempt carries (about) the whole budget, later ones only the
  // shrinking remainder.
  ASSERT_FALSE(inner.deadlines.empty());
  EXPECT_LE(inner.deadlines.front(), 50 * common::kMilli);
  EXPECT_GT(inner.deadlines.front(), 40 * common::kMilli);
  for (std::size_t i = 1; i < inner.deadlines.size(); ++i) {
    EXPECT_LT(inner.deadlines[i], inner.deadlines[i - 1]);
    EXPECT_LT(inner.deadlines[i], 25 * common::kMilli);
  }
}

TEST(ResilientChannelTest, EachChannelJittersOnItsOwnStream) {
  // Clients that one daemon restart failed together must not retry in
  // lockstep, so every channel seeds its own jitter stream.  A retry's wait
  // is what its first attempt's budget held beyond the retry's: the drawn
  // delay, uniform in [0, kBackoffBaseNs], plus sleep and timer noise.
  std::vector<common::Nanos> delays;
  for (int i = 0; i < 16; ++i) {
    ScriptedChannel inner;
    inner.script = {ErrCode::kUnavailable};
    ResilientChannel channel(&inner);
    ASSERT_TRUE(BlockingCall(channel, 7, "x").ok());
    ASSERT_EQ(inner.deadlines.size(), 2u);
    delays.push_back(inner.deadlines[0] - inner.deadlines[1]);
  }
  // Channels sharing one stream draw one delay, and their waits differ only
  // by that noise.  Sixteen independent draws from [0, 5 ms] all land
  // within 1 ms of each other with probability about 5e-10.
  const auto [lo, hi] = std::minmax_element(delays.begin(), delays.end());
  EXPECT_GT(*hi - *lo, common::kMilli) << "the channels drew one delay";
}

TEST(ResilientChannelTest, RetryBudgetStopsAmplification) {
  // kOverloaded is retryable but never trips the breaker, so every call
  // keeps spending retries; a 1 ns retry-after hint skips the jitter sleep.
  ScriptedChannel inner;
  for (int i = 0; i < 10000; ++i) inner.script.push_back(ErrCode::kOverloaded);
  inner.overloaded_payload = RetryAfter(1);
  ResilientChannel channel(&inner);
  auto& exhausted = common::MetricsRegistry::Default().GetCounter(
      "rpc.resilient.budget_exhausted");
  const std::uint64_t exhausted_before = exhausted.value();

  // The bucket starts full: calls get every retry until it runs dry, which
  // takes at least kRetryBudgetCap / (kMaxAttempts - 1) calls.
  constexpr int kRetriesPerCall = ResilientChannel::kMaxAttempts - 1;
  int calls = 0;
  while (exhausted.value() == exhausted_before && calls < 1000) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kOverloaded);
    ++calls;
  }
  ASSERT_GT(exhausted.value(), exhausted_before) << "the budget never ran out";
  EXPECT_GE(calls, static_cast<int>(ResilientChannel::kRetryBudgetCap) /
                       kRetriesPerCall);

  // Drained: each call deposits kRetryBudgetRatio of a retry, so sustained
  // failure settles at that much amplification instead of kMaxAttempts x.
  constexpr int kCalls = 100;
  const int attempts_before = inner.attempts;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kOverloaded);
  }
  const int attempts = inner.attempts - attempts_before;
  EXPECT_GE(attempts, kCalls);
  const int amplified = static_cast<int>(
      kCalls * ResilientChannel::kRetryBudgetRatio);
  EXPECT_LE(attempts, kCalls + amplified + 1);
}

TEST(ResilientChannelTest, OverloadedNeverTripsTheBreaker) {
  ScriptedChannel inner;
  for (int i = 0; i < 100; ++i) inner.script.push_back(ErrCode::kOverloaded);
  inner.overloaded_payload = RetryAfter(1);
  ResilientChannel channel(&inner);

  // Far more consecutive kOverloaded outcomes than the threshold: the server
  // is alive and answering, so the breaker must stay closed throughout.
  constexpr int kCalls = 5;
  static_assert(kCalls * ResilientChannel::kMaxAttempts >
                ResilientChannel::kBreakerThreshold);
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kOverloaded);
    EXPECT_EQ(channel.breaker_state(7), BreakerState::kClosed);
  }
  // Still retried, just never tripped.
  EXPECT_EQ(inner.attempts, kCalls * ResilientChannel::kMaxAttempts);
}

TEST(ResilientChannelTest, OverloadedBackoffHonorsRetryAfterHint) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kOverloaded};  // then kOk
  inner.overloaded_payload = RetryAfter(50 * common::kMilli);
  // The first retry's jitter is at most kBackoffBaseNs (5 ms): a wait near
  // 50 ms came from the server's hint.
  static_assert(ResilientChannel::kBackoffBaseNs < 45 * common::kMilli);
  ResilientChannel channel(&inner);

  const common::Nanos start = common::CpuTimer::Now();
  EXPECT_TRUE(BlockingCall(channel, 7, "x").ok());
  const common::Nanos elapsed = common::CpuTimer::Now() - start;
  EXPECT_EQ(inner.attempts, 2);
  EXPECT_GE(elapsed, 45 * common::kMilli);
}

// ---------------------------------------------------------------------------
// Fan-out: one inner fan-out for every first attempt, retries per leg
// ---------------------------------------------------------------------------

// Inner channel with one outcome script per server (kOk echoes the payload;
// an exhausted script is kOk).  It records every fan-out it is handed — the
// legs' servers, trace id and deadline — so a test sees which legs went out
// together, and can burn `round_delay_ns` of real time per fan-out.
// Completes inline.
class FanOutScriptedChannel final : public Channel {
 public:
  struct Round {
    std::vector<NodeId> servers;
    std::uint64_t trace_id = 0;
    common::Nanos deadline_ns = 0;
  };

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override {
    std::vector<CallLeg> legs;
    legs.push_back(CallLeg{server, opcode, std::move(payload)});
    FanOutAsync(std::move(legs), CallMeta{},
                [&done](std::vector<RpcResponse> out) {
                  done(std::move(out.front()));
                });
  }

  void FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                   std::function<void(std::vector<RpcResponse>)> done) override {
    Round round;
    round.trace_id = meta.trace_id;
    round.deadline_ns = meta.deadline_ns;
    std::vector<RpcResponse> out;
    for (CallLeg& leg : legs) {
      round.servers.push_back(leg.server);
      RpcResponse resp;
      std::deque<ErrCode>& script = scripts[leg.server];
      if (!script.empty()) {
        resp.code = script.front();
        script.pop_front();
      }
      if (resp.ok()) resp.payload = std::move(leg.payload);
      out.push_back(std::move(resp));
    }
    rounds.push_back(std::move(round));
    if (round_delay_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(round_delay_ns));
    }
    done(std::move(out));
  }

  std::map<NodeId, std::deque<ErrCode>> scripts;
  std::vector<Round> rounds;
  common::Nanos round_delay_ns = 0;
};

std::vector<RpcResponse> BlockingFanOut(Channel& channel,
                                        std::vector<CallLeg> legs,
                                        CallMeta meta = {}) {
  std::vector<RpcResponse> out;
  channel.FanOutAsync(std::move(legs), meta,
                      [&out](std::vector<RpcResponse> r) { out = std::move(r); });
  return out;
}

TEST(ResilientChannelTest, FanOutRetriesOnlyTheFailedLegUnderItsTraceId) {
  FanOutScriptedChannel inner;
  inner.scripts[2] = {ErrCode::kUnavailable};  // then kOk
  ResilientChannel channel(&inner);

  const std::vector<RpcResponse> rs = BlockingFanOut(
      channel, {{1, kEchoOp, "a"}, {2, kEchoOp, "b"}, {3, kEchoOp, "c"}});
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].payload, "a");
  EXPECT_EQ(rs[1].payload, "b");
  EXPECT_EQ(rs[2].payload, "c");
  for (const RpcResponse& r : rs) EXPECT_TRUE(r.ok());
  // Every first attempt went out in one inner fan-out; only the failed leg
  // was sent again, under the same trace id.
  ASSERT_EQ(inner.rounds.size(), 2u);
  EXPECT_EQ(inner.rounds[0].servers, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(inner.rounds[1].servers, (std::vector<NodeId>{2}));
  EXPECT_NE(inner.rounds[0].trace_id, 0u);
  EXPECT_EQ(inner.rounds[1].trace_id, inner.rounds[0].trace_id);
}

TEST(ResilientChannelTest, FanOutOpenBreakerFailsOnlyItsOwnLeg) {
  FanOutScriptedChannel inner;
  for (int i = 0; i < ResilientChannel::kBreakerThreshold; ++i) {
    inner.scripts[2].push_back(ErrCode::kUnavailable);
  }
  ResilientChannel channel(&inner);
  OpenBreaker(channel, 2);
  const std::size_t rounds_at_open = inner.rounds.size();

  auto& fast_fails =
      common::MetricsRegistry::Default().GetCounter("rpc.resilient.fast_fails");
  const std::uint64_t fast_fails_before = fast_fails.value();
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, kEchoOp, "live"}, {2, kEchoOp, "dead"}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok());
  EXPECT_EQ(rs[0].payload, "live");
  EXPECT_EQ(rs[1].code, ErrCode::kUnavailable);
  // Server 2's leg never touched the wire, on any of its attempts; server
  // 1's went out alone.
  ASSERT_EQ(inner.rounds.size(), rounds_at_open + 1);
  EXPECT_EQ(inner.rounds.back().servers, (std::vector<NodeId>{1}));
  EXPECT_EQ(fast_fails.value(),
            fast_fails_before + ResilientChannel::kMaxAttempts);
  EXPECT_EQ(channel.breaker_state(1), BreakerState::kClosed);
}

TEST(ResilientChannelTest, FanOutRetryGetsOnlyWhatRemainsOfTheBudget) {
  FanOutScriptedChannel inner;
  inner.scripts[2] = {ErrCode::kTimeout};  // then kOk
  inner.round_delay_ns = 40 * common::kMilli;
  ResilientChannel channel(&inner);

  CallMeta meta;
  meta.deadline_ns = 200 * common::kMilli;
  const std::vector<RpcResponse> rs = BlockingFanOut(
      channel, {{1, kEchoOp, "a"}, {2, kEchoOp, "b"}}, meta);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok());
  EXPECT_TRUE(rs[1].ok());
  ASSERT_EQ(inner.rounds.size(), 2u);
  EXPECT_LE(inner.rounds[0].deadline_ns, 200 * common::kMilli);
  EXPECT_GT(inner.rounds[0].deadline_ns, 150 * common::kMilli);
  // The first round burned 40ms of the one budget; the retry gets the rest.
  EXPECT_EQ(inner.rounds[1].servers, (std::vector<NodeId>{2}));
  EXPECT_LE(inner.rounds[1].deadline_ns, 160 * common::kMilli);
}

// ---------------------------------------------------------------------------
// End to end: retry + server-side dedup = exactly-once mutations
// ---------------------------------------------------------------------------

// Applies each distinct payload; double-apply detection via per-payload count.
class ApplyOnceHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    (void)opcode;
    std::lock_guard<std::mutex> lock(mu_);
    ++applied_[std::string(payload)];
    RpcResponse resp;
    resp.payload = "applied:" + std::string(payload);
    return resp;
  }

  std::map<std::string, int> applied() {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }

 private:
  std::mutex mu_;
  std::map<std::string, int> applied_;
};

// Issue one call until it succeeds, always under one trace id, so every
// repeat is the same request to the server's dedup window.  At the fault
// rates below all kMaxAttempts tries of one call can hit torn replies, and
// an open breaker fails calls fast until its probe interval passes; the
// caller then repeats the call, as an application would.
RpcResponse CallUntilOk(ResilientChannel& channel, NodeId server,
                        std::uint16_t opcode, const std::string& payload) {
  CallMeta meta;
  meta.trace_id = NextTraceId();
  RpcResponse resp;
  for (int call = 0; call < 20; ++call) {
    if (channel.breaker_state(server) == BreakerState::kOpen) {
      SleepPastBreakerOpen();
    }
    channel.CallAsyncMeta(server, opcode, payload, meta,
                          [&](RpcResponse r) { resp = std::move(r); });
    if (resp.ok()) break;
  }
  return resp;
}

TEST(ResilientChannelTest, ExactlyOnceMutationsThroughFaultyTcpServer) {
  // The server tears 40% of responses mid-frame and duplicates 20% of
  // request frames; the client retries.  The dedup window must absorb both:
  // every mutation applies exactly once and every call eventually succeeds.
  auto spec = FaultSpec::Parse("short_write=0.4,dup=0.2,seed=11");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  DedupWindow dedup({kEchoOp});
  ApplyOnceHandler handler;

  TcpServer::Options server_options;
  server_options.fault = &injector;
  server_options.dedup = &dedup;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions channel_options;
  channel_options.call_deadline_ns = 500 * common::kMilli;
  TcpChannel tcp(channel_options);
  tcp.Register(1, server.host(), server.port());

  ResilientChannel channel(&tcp);

  constexpr int kMutations = 25;
  for (int i = 0; i < kMutations; ++i) {
    const std::string payload = "mutation-" + std::to_string(i);
    const RpcResponse resp = CallUntilOk(channel, 1, kEchoOp, payload);
    ASSERT_TRUE(resp.ok()) << "mutation " << i << " code "
                           << static_cast<int>(resp.code);
    EXPECT_EQ(resp.payload, "applied:" + payload);
  }

  const auto applied = handler.applied();
  EXPECT_EQ(applied.size(), static_cast<std::size_t>(kMutations));
  for (const auto& [payload, count] : applied) {
    EXPECT_EQ(count, 1) << payload << " double-applied";
  }
  server.Stop();
}

TEST(ResilientChannelTest, BatchMkdirRepliesExactlyOnceThroughFaultyServer) {
  // The batch opcodes ride the same idempotent-replay window as their
  // per-op forms.  Against a server that duplicates request frames and
  // tears responses, a retried kDmsBatchMkdir must be replayed from the
  // dedup cache, not re-applied: a re-applied batch would answer kExists
  // for every sub-op, which the client would misread as lost directories.
  auto spec = FaultSpec::Parse("short_write=0.4,dup=0.2,seed=13");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  DedupWindow dedup(core::proto::IdempotentReplayOps());
  core::DirectoryMetadataServer dms;

  TcpServer::Options server_options;
  server_options.fault = &injector;
  server_options.dedup = &dedup;
  TcpServer server(&dms, server_options);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions channel_options;
  channel_options.call_deadline_ns = 500 * common::kMilli;
  TcpChannel tcp(channel_options);
  tcp.Register(1, server.host(), server.port());

  ResilientChannel channel(&tcp);

  const fs::Identity id{1000, 1000};
  for (int round = 0; round < 20; ++round) {
    const std::string root = "/dedup" + std::to_string(round);
    std::vector<std::string> subops;
    for (const std::string& path : {root, root + "/x", root + "/x/y"}) {
      subops.push_back(fs::Pack(path, std::uint32_t{0755}, id,
                                std::uint64_t{static_cast<std::uint64_t>(
                                    round + 1)}));
    }
    const RpcResponse resp =
        CallUntilOk(channel, 1, core::proto::kDmsBatchMkdir,
                    wire::EncodeBatchRequest(subops));
    ASSERT_TRUE(resp.ok()) << "round " << round;
    std::vector<wire::BatchItem> items;
    ASSERT_TRUE(wire::DecodeBatchResponse(resp.payload, &items));
    ASSERT_EQ(items.size(), subops.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].code, ErrCode::kOk)
          << "round " << round << " sub-op " << i
          << ": a duplicate delivery was re-applied instead of replayed";
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace loco::net
