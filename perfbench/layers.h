// Reduction of a traced run's spans to per-layer self times and counts.
//
// Per op, with L its latency measured by the caller:
//   client self     = L - the union of its RPC spans
//   net transport   = each RPC span - the handler spans that served it
//   server self     = each handler span - its KV time
//   kv self         = the time inside the decorated stores
// The four add up to L exactly when every handler span joins its RPC by
// trace id, handler spans nest inside their RPC spans and an op's RPCs do
// not overlap; the stage-sum check holds the sum to within 10% of L.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "kvstore/kv.h"
#include "trace.h"

namespace locobench {

// Store counter deltas of one traced cycle, per metadata server instance
// (DMS, FMS 1, FMS 2).
using StoreDeltas = std::vector<loco::kv::KvStats>;

struct Metric {
  double value = 0;
  std::string unit;
};

// Quantile q of `v` with linear interpolation between order statistics
// (sorts v in place); 0 for an empty vector.
double Quantile(std::vector<std::int64_t>& v, double q);

class LayerReport {
 public:
  void AddCycle(const Spans& spans, const StoreDeltas& deltas);

  // Counters read around traced cycles.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
  loco::common::Histogram queue_delay;

  // Per-layer metrics, keyed by name.
  std::map<std::string, Metric> Metrics() const;
  // Stage sum / latency per reported op kind (the 10% check).
  std::map<std::string, double> StageSumRatios() const;
  // Failed consistency checks; empty when every check passed.
  std::vector<std::string> CheckErrors() const;

 private:
  struct PerKind {
    std::uint64_t ops = 0;
    double latency_ns = 0;
    double client_self_ns = 0;
    std::uint64_t rpcs = 0;
    std::vector<std::int64_t> rpc_ns;
    double transport_ns = 0;
    std::array<double, kServerKinds> server_self_ns{};
    std::uint64_t handler_calls = 0;
    double kv_ns = 0;
    std::uint64_t kv_calls = 0;
    double kv_bytes_written = 0;
    double kv_wal_bytes = 0;
    double kv_scan_items = 0;
  };
  std::array<PerKind, kOpKinds> kinds_{};
  std::vector<std::string> errors_;
};

}  // namespace locobench
