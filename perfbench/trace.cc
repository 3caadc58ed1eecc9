#include "trace.h"

#include <atomic>
#include <mutex>
#include <utility>

namespace locobench {
namespace {

using loco::net::RpcResponse;

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_op{1};
std::atomic<std::uint64_t> g_unattributed{0};

// Per-thread span buffers.  A thread registers a buffer on its first span
// of a generation; TakeSpans drains every buffer and starts a new
// generation, so a surviving thread never writes into a drained buffer.
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<Spans>> g_bufs;  // guarded by g_bufs_mu
std::atomic<std::uint64_t> g_generation{1};

thread_local Spans* tl_buf = nullptr;
thread_local std::uint64_t tl_generation = 0;
thread_local std::uint64_t tl_op = 0;                // caller threads
thread_local HandlerSpan* tl_handler = nullptr;      // server worker threads

Spans& Buf() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (tl_buf == nullptr || tl_generation != gen) {
    auto buf = std::make_unique<Spans>();
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    tl_buf = buf.get();
    tl_generation = gen;
    g_bufs.push_back(std::move(buf));
  }
  return *tl_buf;
}

template <typename T>
void Append(std::vector<T>* to, std::vector<T>* from) {
  to->insert(to->end(), std::make_move_iterator(from->begin()),
             std::make_move_iterator(from->end()));
}

// Runs one store call; while tracing, charges it to the open handler span.
template <typename F>
auto TimedCall(F&& call, std::uint64_t written, bool scan = false) {
  if (!Tracing()) return call();
  HandlerSpan* h = tl_handler;
  const std::int64_t start = NowNs();
  auto result = call();
  const std::int64_t end = NowNs();
  if (h == nullptr) {
    g_unattributed.fetch_add(1, std::memory_order_relaxed);
  } else {
    h->kv_ns += end - start;
    (scan ? h->kv_scans : h->kv_calls) += 1;
    h->kv_bytes_written += written;
  }
  return result;
}

void AddLogBytes(std::uint64_t bytes) {
  if (tl_handler != nullptr && Tracing()) tl_handler->kv_log_bytes += bytes;
}

}  // namespace

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kStat: return "stat";
    case OpKind::kUnlink: return "unlink";
    case OpKind::kMkdir: return "mkdir";
    case OpKind::kRename: return "rename";
    case OpKind::kReaddir: return "readdir";
    case OpKind::kBatch: return "batch";
    case OpKind::kRmdir: return "rmdir";
  }
  return "?";
}

const char* ServerName(ServerKind kind) {
  switch (kind) {
    case ServerKind::kDms: return "dms";
    case ServerKind::kFms: return "fms";
    case ServerKind::kOsd: return "osd";
  }
  return "?";
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Spans TakeSpans() {
  Spans all;
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (auto& buf : g_bufs) {
    Append(&all.ops, &buf->ops);
    Append(&all.rpcs, &buf->rpcs);
    Append(&all.handlers, &buf->handlers);
  }
  g_bufs.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  all.unattributed_kv_calls = g_unattributed.exchange(0);
  return all;
}

std::uint64_t BeginOp() {
  tl_op = g_next_op.fetch_add(1, std::memory_order_relaxed);
  return tl_op;
}

void EndOp(std::uint64_t id, OpKind kind, std::int64_t start,
           std::int64_t end) {
  tl_op = 0;
  if (Tracing()) Buf().ops.push_back(OpSpan{id, kind, start, end});
}

void TracingChannel::CallAsync(loco::net::NodeId server, std::uint16_t opcode,
                               std::string payload,
                               std::function<void(RpcResponse)> done) {
  CallAsyncMeta(server, opcode, std::move(payload), loco::net::CallMeta{},
                std::move(done));
}

void TracingChannel::CallAsyncMeta(loco::net::NodeId server,
                                   std::uint16_t opcode, std::string payload,
                                   const loco::net::CallMeta& meta,
                                   std::function<void(RpcResponse)> done) {
  if (!Tracing()) {
    inner_.CallAsyncMeta(server, opcode, std::move(payload), meta,
                         std::move(done));
    return;
  }
  // A fresh id per call: a fan-out shares one id across its legs, which
  // would make the handler → RPC join ambiguous.
  loco::net::CallMeta traced = meta;
  traced.trace_id = loco::net::NextTraceId();
  const RpcSpan span{tl_op, traced.trace_id, NowNs(), 0};
  inner_.CallAsyncMeta(
      server, opcode, std::move(payload), traced,
      [span, done = std::move(done)](RpcResponse resp) mutable {
        RpcSpan finished = span;
        finished.end = NowNs();
        Buf().rpcs.push_back(finished);
        done(std::move(resp));
      });
}

RpcResponse TracingHandler::Handle(std::uint16_t opcode,
                                   std::string_view payload) {
  return HandleCtx(opcode, payload, loco::net::HandlerContext{});
}

RpcResponse TracingHandler::HandleCtx(std::uint16_t opcode,
                                      std::string_view payload,
                                      const loco::net::HandlerContext& ctx) {
  RpcResponse resp;
  if (!Tracing()) {
    resp = inner_->HandleCtx(opcode, payload, ctx);
  } else {
    HandlerSpan span;
    span.trace_id = ctx.trace_id;
    span.server = kind_;
    span.instance = instance_;
    tl_handler = &span;
    span.start = NowNs();
    resp = inner_->HandleCtx(opcode, payload, ctx);
    span.end = NowNs();
    tl_handler = nullptr;
    Buf().handlers.push_back(span);
  }
  // Modeled device time is never slept: the stores' real WAL appends are
  // the journal this benchmark measures.
  resp.extra_service_ns = 0;
  return resp;
}

loco::Status TimedKv::Put(std::string_view key, std::string_view value) {
  loco::Status s = TimedCall([&] { return inner_->Put(key, value); },
                             key.size() + value.size());
  if (s.ok()) AddLogBytes(key.size() + value.size());
  return s;
}

loco::Status TimedKv::Get(std::string_view key, std::string* value) const {
  return TimedCall([&] { return inner_->Get(key, value); }, 0);
}

loco::Status TimedKv::Delete(std::string_view key) {
  loco::Status s = TimedCall([&] { return inner_->Delete(key); }, 0);
  if (s.ok()) AddLogBytes(key.size());
  return s;
}

bool TimedKv::Contains(std::string_view key) const {
  return TimedCall([&] { return inner_->Contains(key); }, 0);
}

loco::Status TimedKv::PatchValue(std::string_view key, std::size_t offset,
                                 std::string_view patch) {
  loco::Status s = TimedCall(
      [&] { return inner_->PatchValue(key, offset, patch); }, patch.size());
  if (s.ok()) AddLogBytes(key.size() + patch.size());
  return s;
}

loco::Status TimedKv::ReadValueAt(std::string_view key, std::size_t offset,
                                  std::size_t len, std::string* out) const {
  return TimedCall([&] { return inner_->ReadValueAt(key, offset, len, out); },
                   0);
}

loco::Status TimedKv::ScanPrefix(std::string_view prefix, std::size_t limit,
                                 std::vector<loco::kv::Entry>* out) const {
  // Scans are rare; bracket them with the store's own counter to learn how
  // many entries they visited (hash stores visit every entry).
  const std::uint64_t before = Tracing() ? inner_->stats().scan_items : 0;
  loco::Status s = TimedCall(
      [&] { return inner_->ScanPrefix(prefix, limit, out); }, 0, true);
  if (Tracing() && tl_handler != nullptr) {
    tl_handler->kv_scan_items += inner_->stats().scan_items - before;
  }
  return s;
}

void TimedKv::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  const std::uint64_t before = Tracing() ? inner_->stats().scan_items : 0;
  TimedCall(
      [&] {
        inner_->ForEach(fn);
        return true;
      },
      0, true);
  if (Tracing() && tl_handler != nullptr) {
    tl_handler->kv_scan_items += inner_->stats().scan_items - before;
  }
}

}  // namespace locobench
