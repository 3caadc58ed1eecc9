// Span recording for the traced run of the live-stack benchmark.
//
// Nothing inside src/ is instrumented.  Three decorators from this file sit
// on the public entry points of each layer instead:
//
//   * TracingChannel wraps the mount's net::Channel.  Every call gets a fresh
//     trace id, so each RPC span joins exactly the handler spans that served
//     it, and is tied to the client op running on the calling thread.
//   * TracingHandler wraps each server's net::RpcHandler.  It records a span
//     keyed by HandlerContext::trace_id.  It also zeroes extra_service_ns in
//     every mode, so no modeled device or journal time is ever slept.
//   * TimedKv is the kv_decorator of every DMS and FMS store.  It times each
//     store call and charges it to the handler span running on its thread.
//
// Spans go to per-thread buffers and are reduced after a cycle's threads
// have all been joined (TakeSpans), so recording takes no shared lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/kv.h"
#include "net/rpc.h"

namespace locobench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Client op types the benchmark times.  kRmdir is timed and counted but has
// no metric of its own.
enum class OpKind : std::uint8_t {
  kCreate,
  kStat,
  kUnlink,
  kMkdir,
  kRename,
  kReaddir,
  kBatch,
  kRmdir,
};
constexpr std::size_t kOpKinds = 8;
constexpr std::size_t kReportedOpKinds = 7;  // every kind but kRmdir
const char* OpName(OpKind kind);

// The server a handler span ran on.
enum class ServerKind : std::uint8_t { kDms, kFms, kOsd };
constexpr std::size_t kServerKinds = 3;
const char* ServerName(ServerKind kind);

struct OpSpan {
  std::uint64_t id = 0;
  OpKind kind = OpKind::kCreate;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct RpcSpan {
  std::uint64_t op_id = 0;  // 0 = issued outside a timed op
  std::uint64_t trace_id = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// A handler span with its KV child spans folded in (they run sequentially on
// the handler's thread, so their durations add without overlap).
struct HandlerSpan {
  std::uint64_t trace_id = 0;
  ServerKind server = ServerKind::kDms;
  std::uint8_t instance = 0;  // index into Cluster's server list
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t kv_ns = 0;
  std::uint32_t kv_calls = 0;       // point calls: get/put/delete/patch
  std::uint32_t kv_scans = 0;       // ScanPrefix / ForEach calls
  std::uint64_t kv_bytes_written = 0;
  std::uint64_t kv_log_bytes = 0;   // mutation bytes, the WAL attribution key
  std::uint64_t kv_scan_items = 0;
};

struct Spans {
  std::vector<OpSpan> ops;
  std::vector<RpcSpan> rpcs;
  std::vector<HandlerSpan> handlers;
  // KV calls made while no handler span was open on the thread.
  std::uint64_t unattributed_kv_calls = 0;
};

// Global switch: spans are recorded only while tracing is on.  Set before a
// cycle's threads start and cleared after they are joined.
void SetTracing(bool on);
bool Tracing();

// Collect (and clear) every span recorded since the last call.  Only call
// when no recording thread is running.
Spans TakeSpans();

// Caller-thread op bracket: RPC spans issued between Begin and End belong to
// that op.
std::uint64_t BeginOp();
void EndOp(std::uint64_t id, OpKind kind, std::int64_t start, std::int64_t end);

class TracingChannel final : public loco::net::Channel {
 public:
  explicit TracingChannel(loco::net::Channel& inner) : inner_(inner) {}

  void CallAsync(loco::net::NodeId server, std::uint16_t opcode,
                 std::string payload,
                 std::function<void(loco::net::RpcResponse)> done) override;
  void CallAsyncMeta(loco::net::NodeId server, std::uint16_t opcode,
                     std::string payload, const loco::net::CallMeta& meta,
                     std::function<void(loco::net::RpcResponse)> done) override;

 private:
  loco::net::Channel& inner_;
};

class TracingHandler final : public loco::net::RpcHandler {
 public:
  TracingHandler(loco::net::RpcHandler* inner, ServerKind kind,
                 std::uint8_t instance)
      : inner_(inner), kind_(kind), instance_(instance) {}

  loco::net::RpcResponse Handle(std::uint16_t opcode,
                                std::string_view payload) override;
  loco::net::RpcResponse HandleCtx(
      std::uint16_t opcode, std::string_view payload,
      const loco::net::HandlerContext& ctx) override;

 private:
  loco::net::RpcHandler* inner_;
  ServerKind kind_;
  std::uint8_t instance_;
};

// Timing decorator for one store.  Forwards every call; while tracing, adds
// the call's duration, count and bytes to the open handler span.
class TimedKv final : public loco::kv::Kv {
 public:
  explicit TimedKv(std::unique_ptr<loco::kv::Kv> inner)
      : inner_(std::move(inner)) {}

  loco::Status Put(std::string_view key, std::string_view value) override;
  loco::Status Get(std::string_view key, std::string* value) const override;
  loco::Status Delete(std::string_view key) override;
  bool Contains(std::string_view key) const override;
  loco::Status PatchValue(std::string_view key, std::size_t offset,
                          std::string_view patch) override;
  loco::Status ReadValueAt(std::string_view key, std::size_t offset,
                           std::size_t len, std::string* out) const override;
  std::size_t Size() const override { return inner_->Size(); }
  loco::Status ScanPrefix(std::string_view prefix, std::size_t limit,
                          std::vector<loco::kv::Entry>* out) const override;
  void ForEach(const std::function<bool(std::string_view, std::string_view)>&
                   fn) const override;
  bool Ordered() const noexcept override { return inner_->Ordered(); }
  loco::kv::KvStats stats() const noexcept override { return inner_->stats(); }
  void ResetStats() noexcept override { inner_->ResetStats(); }

 private:
  std::unique_ptr<loco::kv::Kv> inner_;
};

}  // namespace locobench
