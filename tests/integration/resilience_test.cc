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

ResilienceOptions FastOptions() {
  ResilienceOptions options;
  options.backoff_base_ns = 1;  // keep test wall-clock flat
  options.backoff_cap_ns = 1;
  return options;
}

RpcResponse BlockingCall(Channel& channel, NodeId server, std::string payload) {
  RpcResponse out;
  channel.CallAsync(server, kEchoOp, std::move(payload),
                    [&out](RpcResponse resp) { out = std::move(resp); });
  return out;
}

TEST(ResilientChannelTest, RetriesRetryableFailuresUntilSuccess) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kUnavailable, ErrCode::kTimeout, ErrCode::kOk};
  ResilientChannel channel(&inner, FastOptions());

  const RpcResponse resp = BlockingCall(channel, 7, "hello");
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload, "hello");
  EXPECT_EQ(inner.attempts, 3);
}

TEST(ResilientChannelTest, GivesUpAfterMaxAttempts) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kUnavailable, ErrCode::kUnavailable,
                  ErrCode::kUnavailable, ErrCode::kUnavailable};
  auto options = FastOptions();
  options.max_attempts = 3;
  ResilientChannel channel(&inner, options);

  const RpcResponse resp = BlockingCall(channel, 7, "x");
  EXPECT_EQ(resp.code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, 3);
}

TEST(ResilientChannelTest, NonRetryableErrorsReturnImmediately) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kNotFound};
  ResilientChannel channel(&inner, FastOptions());

  const RpcResponse resp = BlockingCall(channel, 7, "x");
  EXPECT_EQ(resp.code, ErrCode::kNotFound);
  EXPECT_EQ(inner.attempts, 1);  // a live server answered; don't hammer it
}

TEST(ResilientChannelTest, OneTraceIdAcrossAllAttempts) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kTimeout, ErrCode::kTimeout, ErrCode::kOk};
  ResilientChannel channel(&inner, FastOptions());

  ASSERT_TRUE(BlockingCall(channel, 7, "x").ok());
  ASSERT_EQ(inner.trace_ids.size(), 3u);
  EXPECT_NE(inner.trace_ids[0], 0u);  // stamped when the caller didn't
  EXPECT_EQ(inner.trace_ids[0], inner.trace_ids[1]);
  EXPECT_EQ(inner.trace_ids[1], inner.trace_ids[2]);
}

TEST(ResilientChannelTest, BreakerOpensAndFailsFast) {
  ScriptedChannel inner;
  for (int i = 0; i < 100; ++i) inner.script.push_back(ErrCode::kUnavailable);
  auto options = FastOptions();
  options.max_attempts = 1;
  options.breaker_threshold = 3;
  options.breaker_open_ns = 10 * common::kSecond;  // stays open for the test
  ResilientChannel channel(&inner, options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  }
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kOpen);
  const int attempts_at_open = inner.attempts;

  // Fast-fail: the doomed endpoint is not touched again.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  }
  EXPECT_EQ(inner.attempts, attempts_at_open);

  // Breakers are per endpoint: node 8 is unaffected.
  inner.script.clear();
  EXPECT_TRUE(BlockingCall(channel, 8, "y").ok());
  EXPECT_EQ(channel.breaker_state(8), BreakerState::kClosed);
}

TEST(ResilientChannelTest, HalfOpenProbeClosesBreakerOnSuccess) {
  ScriptedChannel inner;
  for (int i = 0; i < 3; ++i) inner.script.push_back(ErrCode::kUnavailable);
  auto options = FastOptions();
  options.max_attempts = 1;
  options.breaker_threshold = 3;
  options.breaker_open_ns = 5 * common::kMilli;
  ResilientChannel channel(&inner, options);

  for (int i = 0; i < 3; ++i) (void)BlockingCall(channel, 7, "x");
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Script is exhausted, so the probe succeeds and the breaker closes.
  EXPECT_TRUE(BlockingCall(channel, 7, "probe").ok());
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kClosed);
  EXPECT_TRUE(BlockingCall(channel, 7, "after").ok());
}

TEST(ResilientChannelTest, HalfOpenProbeFailureReopensBreaker) {
  ScriptedChannel inner;
  for (int i = 0; i < 4; ++i) inner.script.push_back(ErrCode::kUnavailable);
  auto options = FastOptions();
  options.max_attempts = 1;
  options.breaker_threshold = 3;
  options.breaker_open_ns = 5 * common::kMilli;
  ResilientChannel channel(&inner, options);

  for (int i = 0; i < 3; ++i) (void)BlockingCall(channel, 7, "x");
  EXPECT_EQ(channel.breaker_state(7), BreakerState::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(BlockingCall(channel, 7, "probe").code, ErrCode::kUnavailable);
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

// Satellite regression: ONE deadline budget covers every attempt.  Before
// the fix each attempt got the full call deadline, so a max_attempts=5 call
// against a 30ms-per-attempt failure could run ~5x its 50ms budget.
TEST(ResilientChannelTest, OneDeadlineBudgetBoundsAllAttempts) {
  SlowFailChannel inner;
  auto options = FastOptions();
  options.max_attempts = 5;
  ResilientChannel channel(&inner, options);

  CallMeta meta;
  meta.deadline_ns = 50 * common::kMilli;
  const common::Nanos start = common::CpuTimer::Now();
  RpcResponse resp;
  channel.CallAsyncMeta(7, kEchoOp, "x", meta,
                        [&](RpcResponse r) { resp = std::move(r); });
  const common::Nanos elapsed = common::CpuTimer::Now() - start;

  EXPECT_EQ(resp.code, ErrCode::kTimeout);
  // Two 30ms attempts exhaust the 50ms budget; attempts 3-5 never run and
  // the wall clock stays near the budget, not max_attempts x budget.
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
  // is what its first attempt's budget held beyond the retry's.
  ResilienceOptions options;
  options.backoff_base_ns = 50 * common::kMilli;
  options.backoff_cap_ns = 50 * common::kMilli;
  std::vector<common::Nanos> delays;
  for (int i = 0; i < 6; ++i) {
    ScriptedChannel inner;
    inner.script = {ErrCode::kUnavailable};
    ResilientChannel channel(&inner, options);
    ASSERT_TRUE(BlockingCall(channel, 7, "x").ok());
    ASSERT_EQ(inner.deadlines.size(), 2u);
    delays.push_back(inner.deadlines[0] - inner.deadlines[1]);
  }
  // Six independent draws from [0, 50 ms] all land within 2 ms of each
  // other with probability about 6e-7.
  const auto [lo, hi] = std::minmax_element(delays.begin(), delays.end());
  EXPECT_GT(*hi - *lo, 2 * common::kMilli) << "the channels drew one delay";
}

TEST(ResilientChannelTest, RetryBudgetStopsAmplification) {
  ScriptedChannel inner;
  for (int i = 0; i < 100; ++i) inner.script.push_back(ErrCode::kUnavailable);
  auto options = FastOptions();
  options.max_attempts = 4;
  options.breaker_threshold = 1000;  // keep the breaker out of the picture
  options.retry_budget_cap = 2.0;
  options.retry_budget_ratio = 0.01;
  ResilientChannel channel(&inner, options);

  const std::uint64_t exhausted_before =
      common::MetricsRegistry::Default()
          .GetCounter("rpc.resilient.budget_exhausted")
          .value();
  // Bucket starts full (2 tokens): first attempt is free, two retries spend
  // the bucket, the third retry is denied.
  EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, 3);
  EXPECT_GT(common::MetricsRegistry::Default()
                .GetCounter("rpc.resilient.budget_exhausted")
                .value(),
            exhausted_before);
  // Bucket (near) empty: the next call gets its first attempt only — offered
  // load stops multiplying against a struggling cluster.
  EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kUnavailable);
  EXPECT_EQ(inner.attempts, 4);
}

TEST(ResilientChannelTest, OverloadedNeverTripsTheBreaker) {
  ScriptedChannel inner;
  for (int i = 0; i < 100; ++i) inner.script.push_back(ErrCode::kOverloaded);
  auto options = FastOptions();
  options.max_attempts = 2;
  options.breaker_threshold = 2;
  ResilientChannel channel(&inner, options);

  // Far more consecutive kOverloaded outcomes than the threshold: the server
  // is alive and answering, so the breaker must stay closed throughout.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(BlockingCall(channel, 7, "x").code, ErrCode::kOverloaded);
    EXPECT_EQ(channel.breaker_state(7), BreakerState::kClosed);
  }
  EXPECT_EQ(inner.attempts, 10);  // still retried, just never tripped
}

TEST(ResilientChannelTest, OverloadedBackoffHonorsRetryAfterHint) {
  ScriptedChannel inner;
  inner.script = {ErrCode::kOverloaded};  // then kOk
  common::Writer hint;
  hint.PutU64(50 * common::kMilli);
  inner.overloaded_payload = hint.Take();
  // Jitter is capped at 1ns by FastOptions: any real wait below came from
  // the server's hint.
  ResilientChannel channel(&inner, FastOptions());

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
  ResilientChannel channel(&inner, FastOptions());

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
  inner.scripts[2] = {ErrCode::kUnavailable};
  auto options = FastOptions();
  options.max_attempts = 1;
  options.breaker_threshold = 1;
  options.breaker_open_ns = 10 * common::kSecond;  // stays open for the test
  ResilientChannel channel(&inner, options);
  ASSERT_EQ(BlockingCall(channel, 2, "x").code, ErrCode::kUnavailable);
  ASSERT_EQ(channel.breaker_state(2), BreakerState::kOpen);

  auto& fast_fails =
      common::MetricsRegistry::Default().GetCounter("rpc.resilient.fast_fails");
  const std::uint64_t fast_fails_before = fast_fails.value();
  const std::vector<RpcResponse> rs =
      BlockingFanOut(channel, {{1, kEchoOp, "live"}, {2, kEchoOp, "dead"}});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].ok());
  EXPECT_EQ(rs[0].payload, "live");
  EXPECT_EQ(rs[1].code, ErrCode::kUnavailable);
  // Server 2's leg never touched the wire; server 1's went out alone.
  ASSERT_EQ(inner.rounds.size(), 2u);
  EXPECT_EQ(inner.rounds[1].servers, (std::vector<NodeId>{1}));
  EXPECT_EQ(fast_fails.value(), fast_fails_before + 1);
  EXPECT_EQ(channel.breaker_state(1), BreakerState::kClosed);
}

TEST(ResilientChannelTest, FanOutRetryGetsOnlyWhatRemainsOfTheBudget) {
  FanOutScriptedChannel inner;
  inner.scripts[2] = {ErrCode::kTimeout};  // then kOk
  inner.round_delay_ns = 40 * common::kMilli;
  ResilientChannel channel(&inner, FastOptions());

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

  ResilienceOptions resilience;
  resilience.max_attempts = 10;
  resilience.backoff_base_ns = common::kMilli;
  resilience.backoff_cap_ns = 5 * common::kMilli;
  resilience.breaker_threshold = 1000;  // never trips in this test
  ResilientChannel channel(&tcp, resilience);

  constexpr int kMutations = 25;
  for (int i = 0; i < kMutations; ++i) {
    const std::string payload = "mutation-" + std::to_string(i);
    const RpcResponse resp = BlockingCall(channel, 1, payload);
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

  ResilienceOptions resilience;
  resilience.max_attempts = 10;
  resilience.backoff_base_ns = common::kMilli;
  resilience.backoff_cap_ns = 5 * common::kMilli;
  resilience.breaker_threshold = 1000;
  ResilientChannel channel(&tcp, resilience);

  const fs::Identity id{1000, 1000};
  for (int round = 0; round < 20; ++round) {
    const std::string root = "/dedup" + std::to_string(round);
    std::vector<std::string> subops;
    for (const std::string& path : {root, root + "/x", root + "/x/y"}) {
      subops.push_back(fs::Pack(path, std::uint32_t{0755}, id,
                                std::uint64_t{static_cast<std::uint64_t>(
                                    round + 1)}));
    }
    RpcResponse resp;
    channel.CallAsync(1, core::proto::kDmsBatchMkdir,
                      wire::EncodeBatchRequest(subops),
                      [&](RpcResponse r) { resp = std::move(r); });
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
