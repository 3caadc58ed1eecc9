// Fault plane: FaultSpec grammar, FaultInjector determinism, DedupWindow
// replay semantics, and end-to-end injected faults over a real TcpServer /
// TcpChannel pair (docs/FAULTS.md).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/dedup.h"
#include "net/fault.h"
#include "net/tcp.h"

namespace loco::net {
namespace {

constexpr std::uint16_t kEchoOp = 42;

std::uint64_t CounterValue(const char* name) {
  return common::MetricsRegistry::Default().GetCounter(name).value();
}

// ---------------------------------------------------------------------------
// FaultSpec::Parse
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullGrammar) {
  auto spec = FaultSpec::Parse(
      "seed=7,drop=0.25,dup=0.5,delay=1,delay_ms=9,reset=0.1,"
      "short_write=0.75,crash_after=3,kv_put_fail=0.2,kv_fail_after=11");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->drop, 0.25);
  EXPECT_DOUBLE_EQ(spec->dup, 0.5);
  EXPECT_DOUBLE_EQ(spec->delay, 1.0);
  EXPECT_EQ(spec->delay_ns, 9 * common::kMilli);
  EXPECT_DOUBLE_EQ(spec->reset, 0.1);
  EXPECT_DOUBLE_EQ(spec->short_write, 0.75);
  EXPECT_EQ(spec->crash_after, 3u);
  EXPECT_DOUBLE_EQ(spec->kv_put_fail, 0.2);
  EXPECT_EQ(spec->kv_fail_after, 11u);
  EXPECT_TRUE(spec->Armed());
}

TEST(FaultSpecTest, EmptySpecIsInert) {
  auto spec = FaultSpec::Parse("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->Armed());
  // A pure seed choice arms nothing either.
  auto seeded = FaultSpec::Parse("seed=99");
  ASSERT_TRUE(seeded.ok());
  EXPECT_FALSE(seeded->Armed());
}

TEST(FaultSpecTest, RejectsUnknownKey) {
  auto spec = FaultSpec::Parse("drop=0.1,frobnicate=1");
  EXPECT_EQ(spec.code(), ErrCode::kInvalid);
}

TEST(FaultSpecTest, RejectsOutOfRangeProbability) {
  EXPECT_EQ(FaultSpec::Parse("drop=1.5").code(), ErrCode::kInvalid);
  EXPECT_EQ(FaultSpec::Parse("dup=-0.1").code(), ErrCode::kInvalid);
}

TEST(FaultSpecTest, RejectsMalformedValues) {
  EXPECT_EQ(FaultSpec::Parse("drop=abc").code(), ErrCode::kInvalid);
  EXPECT_EQ(FaultSpec::Parse("crash_after=ten").code(), ErrCode::kInvalid);
  EXPECT_EQ(FaultSpec::Parse("drop").code(), ErrCode::kInvalid);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameFateSequence) {
  auto spec = FaultSpec::Parse("seed=42,drop=0.3,dup=0.2,reset=0.1,delay=0.15");
  ASSERT_TRUE(spec.ok());
  FaultInjector a(*spec);
  FaultInjector b(*spec);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.OnServerFrame();
    const auto fb = b.OnServerFrame();
    EXPECT_EQ(fa.drop, fb.drop) << "frame " << i;
    EXPECT_EQ(fa.dup, fb.dup) << "frame " << i;
    EXPECT_EQ(fa.reset, fb.reset) << "frame " << i;
    EXPECT_EQ(fa.delay_ns, fb.delay_ns) << "frame " << i;
    EXPECT_FALSE(fa.crash);
  }
}

TEST(FaultInjectorTest, DifferentSeedDivergesEventually) {
  auto spec_a = FaultSpec::Parse("seed=1,drop=0.5");
  auto spec_b = FaultSpec::Parse("seed=2,drop=0.5");
  ASSERT_TRUE(spec_a.ok());
  ASSERT_TRUE(spec_b.ok());
  FaultInjector a(*spec_a);
  FaultInjector b(*spec_b);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.OnServerFrame().drop != b.OnServerFrame().drop;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, CrashAfterFiresOnNthFrame) {
  auto spec = FaultSpec::Parse("crash_after=3");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  EXPECT_FALSE(injector.OnServerFrame().crash);
  EXPECT_FALSE(injector.OnServerFrame().crash);
  EXPECT_TRUE(injector.OnServerFrame().crash);
  EXPECT_TRUE(injector.OnServerFrame().crash);  // latches
}

TEST(FaultInjectorTest, KvFailAfterAllowsPrefixThenFailsForever) {
  auto spec = FaultSpec::Parse("kv_fail_after=3");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(injector.FailKvPut()) << i;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(injector.FailKvPut()) << i;
}

TEST(FaultInjectorTest, KvPutFailCertainty) {
  auto spec = FaultSpec::Parse("kv_put_fail=1");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(injector.FailKvPut());
}

// ---------------------------------------------------------------------------
// DedupWindow
// ---------------------------------------------------------------------------

wire::FrameHeader MakeHeader(std::uint16_t opcode, std::uint64_t request_id,
                             std::uint64_t trace_id) {
  wire::FrameHeader h;
  h.type = wire::FrameType::kRequest;
  h.opcode = opcode;
  h.request_id = request_id;
  h.trace_id = trace_id;
  return h;
}

TEST(DedupWindowTest, KeyStableAcrossRetriesNotPayloads) {
  const auto first = MakeHeader(kEchoOp, /*request_id=*/1, /*trace_id=*/77);
  const auto retry = MakeHeader(kEchoOp, /*request_id=*/2, /*trace_id=*/77);
  EXPECT_EQ(DedupWindow::Key(first, "abc"), DedupWindow::Key(retry, "abc"));
  EXPECT_NE(DedupWindow::Key(first, "abc"), DedupWindow::Key(first, "abd"));
  const auto other_op = MakeHeader(kEchoOp + 1, 1, 77);
  EXPECT_NE(DedupWindow::Key(first, "abc"), DedupWindow::Key(other_op, "abc"));
  const auto other_trace = MakeHeader(kEchoOp, 1, 78);
  EXPECT_NE(DedupWindow::Key(first, "abc"),
            DedupWindow::Key(other_trace, "abc"));
}

TEST(DedupWindowTest, FirstExecutesDuplicateReplays) {
  DedupWindow window({kEchoOp});
  EXPECT_TRUE(window.Eligible(kEchoOp));
  EXPECT_FALSE(window.Eligible(kEchoOp + 1));

  const std::string key = DedupWindow::Key(MakeHeader(kEchoOp, 1, 9), "payload");
  ErrCode code = ErrCode::kOk;
  std::string payload;
  DedupWindow::Slot slot = nullptr;
  ASSERT_EQ(window.Begin(key, &code, &payload, &slot),
            DedupWindow::Outcome::kExecute);
  window.Complete(slot, ErrCode::kExists, "cached-response");

  code = ErrCode::kOk;
  payload.clear();
  ASSERT_EQ(window.Begin(key, &code, &payload, &slot),
            DedupWindow::Outcome::kReplay);
  EXPECT_EQ(code, ErrCode::kExists);
  EXPECT_EQ(payload, "cached-response");
}

TEST(DedupWindowTest, EvictsCompletedEntriesFifo) {
  DedupWindow window({kEchoOp});
  ErrCode code = ErrCode::kOk;
  std::string payload;
  DedupWindow::Slot slot = nullptr;
  const auto key = [](std::uint64_t trace) {
    return DedupWindow::Key(MakeHeader(kEchoOp, 1, trace), "p");
  };
  constexpr std::uint64_t kFirst = 10;
  constexpr std::uint64_t kLast = kFirst + DedupWindow::kCapacity;
  for (std::uint64_t trace = kFirst; trace <= kLast; ++trace) {
    ASSERT_EQ(window.Begin(key(trace), &code, &payload, &slot),
              DedupWindow::Outcome::kExecute);
    window.Complete(slot, ErrCode::kOk, "r");
  }
  // One completion past capacity evicted the first key, so its retry
  // executes again; the last key is still cached and replays.
  EXPECT_EQ(window.Begin(key(kFirst), &code, &payload, &slot),
            DedupWindow::Outcome::kExecute);
  window.Complete(slot, ErrCode::kOk, "r");
  EXPECT_EQ(window.Begin(key(kLast), &code, &payload, &slot),
            DedupWindow::Outcome::kReplay);
}

// ---------------------------------------------------------------------------
// End-to-end over TCP
// ---------------------------------------------------------------------------

class CountingHandler final : public RpcHandler {
 public:
  RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    RpcResponse resp;
    resp.code = ErrCode::kOk;
    resp.payload = std::string(payload);
    (void)opcode;
    return resp;
  }
  int calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> calls_{0};
};

RpcResponse BlockingCall(TcpChannel& channel, NodeId server,
                         std::uint16_t opcode, std::string payload,
                         const CallMeta& meta) {
  RpcResponse out;
  channel.CallAsyncMeta(server, opcode, std::move(payload), meta,
                        [&out](RpcResponse resp) { out = std::move(resp); });
  return out;  // TcpChannel completes inline.
}

// Polls `pred` until it holds or 10 s pass.  A duplicated frame's second
// copy may still be running on a worker when the first copy's reply reaches
// the caller, so counts that include both copies are polled for.
bool Eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct FaultyServer {
  explicit FaultyServer(const char* spec_text, DedupWindow* dedup = nullptr) {
    auto spec = FaultSpec::Parse(spec_text);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    injector = std::make_unique<FaultInjector>(*spec);
    TcpServer::Options options;
    options.fault = injector.get();
    options.dedup = dedup;
    server = std::make_unique<TcpServer>(&handler, options);
    EXPECT_TRUE(server->Start().ok());
  }
  ~FaultyServer() { server->Stop(); }

  CountingHandler handler;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<TcpServer> server;
};

TcpChannelOptions FastFailOptions() {
  TcpChannelOptions options;
  options.call_deadline_ns = 300 * common::kMilli;
  return options;
}

TEST(TcpFaultTest, DroppedRequestTimesOutWithoutExecuting) {
  const std::uint64_t drops_before = CounterValue("faults.injected.drop");
  FaultyServer fs("drop=1,seed=5");
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  CallMeta meta;
  meta.trace_id = NextTraceId();
  const RpcResponse resp = BlockingCall(channel, 1, kEchoOp, "x", meta);
  EXPECT_EQ(resp.code, ErrCode::kTimeout);
  EXPECT_EQ(fs.handler.calls(), 0);
  EXPECT_GT(CounterValue("faults.injected.drop"), drops_before);
}

TEST(TcpFaultTest, ResetTearsDownConnection) {
  FaultyServer fs("reset=1,seed=5");
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  CallMeta meta;
  meta.trace_id = NextTraceId();
  const RpcResponse resp = BlockingCall(channel, 1, kEchoOp, "x", meta);
  EXPECT_FALSE(resp.ok());
  EXPECT_NE(resp.code, ErrCode::kCorruption);  // a reset is not corruption
  EXPECT_EQ(fs.handler.calls(), 0);
}

TEST(TcpFaultTest, ShortWriteNeverYieldsTornPayload) {
  const std::uint64_t before = CounterValue("faults.injected.short_write");
  FaultyServer fs("short_write=1,seed=5");
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  CallMeta meta;
  meta.trace_id = NextTraceId();
  const RpcResponse resp =
      BlockingCall(channel, 1, kEchoOp, std::string(1024, 'p'), meta);
  // The handler ran, but the torn response must surface as a transport
  // failure — never as a short-but-"successful" payload.
  EXPECT_FALSE(resp.ok());
  EXPECT_GT(CounterValue("faults.injected.short_write"), before);
}

TEST(TcpFaultTest, InjectedDelayStallsButServes) {
  const std::uint64_t before = CounterValue("faults.injected.delay");
  FaultyServer fs("delay=1,delay_ms=1,seed=5");
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  CallMeta meta;
  meta.trace_id = NextTraceId();
  const RpcResponse resp = BlockingCall(channel, 1, kEchoOp, "slow", meta);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.payload, "slow");
  EXPECT_EQ(fs.handler.calls(), 1);
  EXPECT_GT(CounterValue("faults.injected.delay"), before);
}

TEST(TcpFaultTest, DuplicatedFramesApplyExactlyOnceWithDedup) {
  DedupWindow dedup({kEchoOp});
  FaultyServer fs("dup=1,seed=5", &dedup);
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  constexpr int kCalls = 8;
  for (int i = 0; i < kCalls; ++i) {
    CallMeta meta;
    meta.trace_id = NextTraceId();
    const RpcResponse resp = BlockingCall(
        channel, 1, kEchoOp, "payload-" + std::to_string(i), meta);
    ASSERT_TRUE(resp.ok()) << "call " << i;
    EXPECT_EQ(resp.payload, "payload-" + std::to_string(i));
  }
  // Every frame was delivered twice; the dedup window must have served each
  // duplicate from cache, executing the handler exactly once per call.
  EXPECT_TRUE(Eventually([&] {
    return dedup.replays() == static_cast<std::uint64_t>(kCalls);
  })) << dedup.replays();
  EXPECT_EQ(fs.handler.calls(), kCalls);
}

TEST(TcpFaultTest, DuplicatedFramesDoubleApplyWithoutDedup) {
  FaultyServer fs("dup=1,seed=5");
  TcpChannel channel(FastFailOptions());
  channel.Register(1, fs.server->host(), fs.server->port());

  CallMeta meta;
  meta.trace_id = NextTraceId();
  const RpcResponse resp = BlockingCall(channel, 1, kEchoOp, "x", meta);
  EXPECT_TRUE(resp.ok());
  // The hazard the window exists to close.
  EXPECT_TRUE(Eventually([&] { return fs.handler.calls() == 2; }))
      << fs.handler.calls();
}

}  // namespace
}  // namespace loco::net
