#include "layers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace locobench {
namespace {

constexpr double kStageSumTolerance = 0.10;
constexpr std::size_t kMetadataServers = 3;  // DMS, FMS 1, FMS 2

// What one op's RPCs and handlers add up to.
struct OpAgg {
  std::vector<std::pair<std::int64_t, std::int64_t>> rpcs;
  double transport_ns = 0;
  std::array<double, kServerKinds> server_self_ns{};
  std::uint64_t handler_calls = 0;
  double kv_ns = 0;
  std::uint64_t kv_calls = 0;
  double kv_bytes_written = 0;
  double kv_wal_bytes = 0;
  double kv_scan_items = 0;
};

std::int64_t UnionNs(std::vector<std::pair<std::int64_t, std::int64_t>> v) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : v) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

double Quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

void LayerReport::AddCycle(const Spans& spans, const StoreDeltas& deltas) {
  auto error = [this](std::string e) {
    if (errors_.size() < 16) errors_.push_back(std::move(e));
  };
  if (spans.unattributed_kv_calls != 0) {
    error(std::to_string(spans.unattributed_kv_calls) +
          " KV calls ran outside any handler span");
  }

  // Handler spans by trace id.
  std::unordered_map<std::uint64_t, std::vector<const HandlerSpan*>> by_trace;
  by_trace.reserve(spans.handlers.size());
  for (const HandlerSpan& h : spans.handlers) by_trace[h.trace_id].push_back(&h);

  // Per-instance totals: the decorator's counts against the stores' own.
  std::array<std::uint64_t, kMetadataServers> calls{}, scans{}, written{};
  std::array<double, kMetadataServers> log_bytes{};
  for (const HandlerSpan& h : spans.handlers) {
    if (h.instance >= kMetadataServers) continue;
    calls[h.instance] += h.kv_calls;
    scans[h.instance] += h.kv_scans;
    written[h.instance] += h.kv_bytes_written;
    log_bytes[h.instance] += static_cast<double>(h.kv_log_bytes);
  }
  std::array<double, kMetadataServers> wal_per_log_byte{};
  for (std::size_t i = 0; i < kMetadataServers && i < deltas.size(); ++i) {
    const loco::kv::KvStats& d = deltas[i];
    const std::uint64_t point = d.gets + d.puts + d.deletes + d.patches;
    if (calls[i] != point) {
      error("server " + std::to_string(i) + ": decorator saw " +
            std::to_string(calls[i]) + " KV calls, stores counted " +
            std::to_string(point));
    }
    if ((scans[i] == 0) != (d.scans == 0)) {
      error("server " + std::to_string(i) + ": decorator saw " +
            std::to_string(scans[i]) + " scans, stores counted " +
            std::to_string(d.scans));
    }
    if (written[i] != d.bytes_written) {
      error("server " + std::to_string(i) + ": decorator saw " +
            std::to_string(written[i]) + " bytes written, stores counted " +
            std::to_string(d.bytes_written));
    }
    // WAL bytes are attributed to calls in proportion to the bytes each
    // mutation hands the store; the per-server total is exact.
    if (log_bytes[i] > 0) {
      wal_per_log_byte[i] = static_cast<double>(d.io_bytes) / log_bytes[i];
    }
  }

  std::unordered_map<std::uint64_t, const OpSpan*> ops;
  ops.reserve(spans.ops.size());
  for (const OpSpan& op : spans.ops) ops[op.id] = &op;

  std::unordered_map<std::uint64_t, OpAgg> aggs;
  std::uint64_t matched_handlers = 0;
  for (const RpcSpan& rpc : spans.rpcs) {
    const auto hs = by_trace.find(rpc.trace_id);
    const auto op = ops.find(rpc.op_id);
    std::int64_t handler_ns = 0;
    OpAgg* agg = op == ops.end() ? nullptr : &aggs[rpc.op_id];
    if (hs != by_trace.end()) {
      for (const HandlerSpan* h : hs->second) {
        ++matched_handlers;
        const std::int64_t dur = h->end - h->start;
        handler_ns += dur;
        if (agg == nullptr) continue;
        agg->server_self_ns[static_cast<std::size_t>(h->server)] +=
            static_cast<double>(dur - h->kv_ns);
        agg->handler_calls += 1;
        agg->kv_ns += static_cast<double>(h->kv_ns);
        agg->kv_calls += h->kv_calls + h->kv_scans;
        agg->kv_bytes_written += static_cast<double>(h->kv_bytes_written);
        agg->kv_scan_items += static_cast<double>(h->kv_scan_items);
        if (h->instance < kMetadataServers) {
          agg->kv_wal_bytes += static_cast<double>(h->kv_log_bytes) *
                               wal_per_log_byte[h->instance];
        }
      }
    }
    if (agg == nullptr) continue;  // an untimed audit call
    agg->rpcs.emplace_back(rpc.start, rpc.end);
    agg->transport_ns += static_cast<double>(rpc.end - rpc.start - handler_ns);
  }
  if (matched_handlers != spans.handlers.size()) {
    error(std::to_string(spans.handlers.size() - matched_handlers) +
          " handler spans joined no RPC span");
  }

  for (const OpSpan& op : spans.ops) {
    PerKind& k = kinds_[static_cast<std::size_t>(op.kind)];
    const std::int64_t latency = op.end - op.start;
    k.ops += 1;
    k.latency_ns += static_cast<double>(latency);
    const auto it = aggs.find(op.id);
    if (it == aggs.end()) {
      k.client_self_ns += static_cast<double>(latency);
      continue;
    }
    OpAgg& a = it->second;
    k.client_self_ns += static_cast<double>(latency - UnionNs(a.rpcs));
    k.rpcs += a.rpcs.size();
    for (const auto& [s, e] : a.rpcs) k.rpc_ns.push_back(e - s);
    k.transport_ns += a.transport_ns;
    for (std::size_t s = 0; s < kServerKinds; ++s) {
      k.server_self_ns[s] += a.server_self_ns[s];
    }
    k.handler_calls += a.handler_calls;
    k.kv_ns += a.kv_ns;
    k.kv_calls += a.kv_calls;
    k.kv_bytes_written += a.kv_bytes_written;
    k.kv_wal_bytes += a.kv_wal_bytes;
    k.kv_scan_items += a.kv_scan_items;
  }
}

std::map<std::string, Metric> LayerReport::Metrics() const {
  std::map<std::string, Metric> m;
  for (std::size_t i = 0; i < kReportedOpKinds; ++i) {
    const PerKind& k = kinds_[i];
    const std::string op = OpName(static_cast<OpKind>(i));
    const double n = k.ops == 0 ? 1.0 : static_cast<double>(k.ops);
    auto per_op_us = [n](double ns) { return ns / n / 1000.0; };
    std::vector<std::int64_t> rpc_ns = k.rpc_ns;
    m["client.self_us." + op] = {per_op_us(k.client_self_ns), "us"};
    m["client.rpcs_per_op." + op] = {static_cast<double>(k.rpcs) / n, "count"};
    m["net.rpc_p50_us." + op] = {Quantile(rpc_ns, 0.50) / 1000.0, "us"};
    m["net.rpc_p99_us." + op] = {Quantile(rpc_ns, 0.99) / 1000.0, "us"};
    m["net.transport_us." + op] = {per_op_us(k.transport_ns), "us"};
    for (std::size_t s = 0; s < kServerKinds; ++s) {
      m[std::string("server.") + ServerName(static_cast<ServerKind>(s)) +
        ".self_us." + op] = {per_op_us(k.server_self_ns[s]), "us"};
    }
    m["server.calls_per_op." + op] = {static_cast<double>(k.handler_calls) / n,
                                      "count"};
    m["kv.self_us." + op] = {per_op_us(k.kv_ns), "us"};
    m["kv.calls_per_op." + op] = {static_cast<double>(k.kv_calls) / n, "count"};
    m["kv.bytes_written_per_op." + op] = {k.kv_bytes_written / n, "B"};
    m["kv.wal_bytes_per_op." + op] = {k.kv_wal_bytes / n, "B"};
    m["kv.scan_items_per_op." + op] = {k.kv_scan_items / n, "count"};
  }
  const double lookups = static_cast<double>(cache_hits + cache_misses);
  m["client.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0, "ratio"};
  m["net.queue_delay_p50_us"] = {
      static_cast<double>(queue_delay.Percentile(0.5)) / 1000.0, "us"};
  m["net.retries"] = {static_cast<double>(retries), "count"};
  m["net.shed"] = {static_cast<double>(shed), "count"};
  return m;
}

std::map<std::string, double> LayerReport::StageSumRatios() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < kReportedOpKinds; ++i) {
    const PerKind& k = kinds_[i];
    if (k.ops == 0 || k.latency_ns <= 0) continue;
    double sum = k.client_self_ns + k.transport_ns + k.kv_ns;
    for (const double s : k.server_self_ns) sum += s;
    out[OpName(static_cast<OpKind>(i))] = sum / k.latency_ns;
  }
  return out;
}

std::vector<std::string> LayerReport::CheckErrors() const {
  std::vector<std::string> errors = errors_;
  for (std::size_t i = 0; i < kReportedOpKinds; ++i) {
    if (kinds_[i].ops == 0) {
      errors.push_back(std::string("no traced ") +
                       OpName(static_cast<OpKind>(i)) + " ops");
    }
  }
  for (const auto& [op, ratio] : StageSumRatios()) {
    if (std::fabs(ratio - 1.0) > kStageSumTolerance) {
      errors.push_back("stage sum of " + op + " is " + std::to_string(ratio) +
                       " of its latency");
    }
  }
  return errors;
}

}  // namespace locobench
