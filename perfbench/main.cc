// locobench: the live-stack metadata benchmark driver (see README.md).
//
//   locobench --workload small_dirs|big_dir|batch_ingest --seed N
//             --seconds S --trace 0|1 --run-dir DIR [--smoke]
//
// Prints one JSON object on stdout: the host fingerprint, sample counts,
// check results and the metrics of the mode (end-to-end with --trace 0,
// per-layer with --trace 1).  Exits 1 when any call failed, the namespace or
// file contents were wrong, or (traced) a consistency check failed.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "host.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace locobench {
namespace {

// Set-up rounds (start a fresh in-memory cluster, tear it down) timed before
// any workload runs; setup_s is their median.  The rounds keep the stores in
// memory: with persistence, creating the ~150 store files and directories
// dominates, and the file system's metadata latency alone moved that between
// 10 and 140 ms from run to run on one VM.  The persisted cycle set-ups are
// reported as cycle_setup_s in the details instead.
constexpr int kSetupRounds = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string run_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--run-dir" && has_value) {
      a->run_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->run_dir.empty() && a->seconds > 0;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

std::map<std::string, Metric> EndToEnd(CycleStats& s,
                                       const std::vector<double>& cycle_rates,
                                       const std::vector<double>& setup_s) {
  std::map<std::string, Metric> m;
  m["setup_s"] = {Median(setup_s), "s"};
  m["ops_per_s"] = {Median(cycle_rates), "1/s"};
  auto lat = [&s](OpKind kind) -> std::vector<std::int64_t>& {
    return s.latency_ns[static_cast<std::size_t>(kind)];
  };
  auto us = [&](OpKind kind, double q) { return Quantile(lat(kind), q) / 1e3; };
  for (const OpKind kind : {OpKind::kCreate, OpKind::kStat, OpKind::kUnlink,
                            OpKind::kBatch, OpKind::kMkdir, OpKind::kRename,
                            OpKind::kReaddir}) {
    m[std::string(OpName(kind)) + "_p50_us"] = {us(kind, 0.50), "us"};
  }
  m["ok_ratio"] = {s.attempted == 0 ? 0
                                    : static_cast<double>(s.attempted - s.failed) /
                                          static_cast<double>(s.attempted),
                   "ratio"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: locobench --workload small_dirs|big_dir|batch_ingest "
                 "--seed N --seconds S --trace 0|1 --run-dir DIR [--smoke]\n");
    return 2;
  }
  const Sizes sizes = args.smoke ? Sizes::Smoke() : Sizes{};
  const HostFingerprint host = MeasureHost();
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(args.run_dir, ec);
  fs::create_directories(args.run_dir, ec);

  loco::common::MetricsRegistry& registry =
      loco::common::MetricsRegistry::Default();
  loco::common::MetricsRegistry::LatencyHistogram& queue_delay =
      registry.GetHistogram("rpc.tcp_server.queue_delay", "wall_ns");

  std::vector<double> setup_s;
  std::string error;
  for (int i = 0; i < kSetupRounds; ++i) {
    const std::int64_t t0 = NowNs();
    auto cluster = Cluster::Start("", false, &error);
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!cluster) break;
    cluster.reset();
    ::malloc_trim(0);
  }

  CycleStats untraced;
  CycleStats traced;
  double untraced_wall_s = 0;
  double traced_wall_s = 0;
  LayerReport layers;
  std::vector<std::string> errors;
  std::vector<double> cycle_setup_s;
  std::vector<double> untraced_rates;  // ops per second of each cycle
  const std::int64_t run_start = NowNs();
  int cycles = 0;
  while (error.empty()) {
    const bool cycle_traced = args.trace && cycles % 2 == 1;
    const std::string dir = args.run_dir + "/cycle" + std::to_string(cycles);
    const std::int64_t t0 = NowNs();
    auto cluster = Cluster::Start(dir, cycle_traced, &error);
    if (!cluster) break;
    cycle_setup_s.push_back(Seconds(NowNs() - t0));

    const StoreDeltas before = cluster->MetadataStoreStats();
    const std::uint64_t retries_before =
        registry.CounterValue("rpc.resilient.retries");
    const loco::common::Histogram queue_before = queue_delay.Snapshot();

    SetTracing(cycle_traced);
    const std::int64_t w0 = NowNs();
    CycleStats stats =
        RunCycle(workload, *cluster, sizes, args.seed, cycles);
    const double wall_s = Seconds(NowNs() - w0);
    SetTracing(false);

    StoreDeltas deltas = cluster->MetadataStoreStats();
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      deltas[i] = deltas[i] - before[i];
    }
    if (cycle_traced) {
      layers.cache_hits += cluster->CacheHits();
      layers.cache_misses += cluster->CacheMisses();
      layers.shed += cluster->ShedCount();
      layers.retries +=
          registry.CounterValue("rpc.resilient.retries") - retries_before;
      loco::common::Histogram queue = queue_delay.Snapshot();
      queue.Subtract(queue_before);
      layers.queue_delay.Merge(queue);
    }
    cluster.reset();  // joins every server thread before the spans are read
    if (cycle_traced) layers.AddCycle(TakeSpans(), deltas);
    fs::remove_all(dir, ec);
    // Hand freed memory back between cycles, so peak_rss_mb is the largest
    // cycle's footprint rather than allocator arenas left by earlier ones.
    ::malloc_trim(0);

    // One line per cycle on stderr, to see drift within a run.
    std::vector<std::int64_t> creates =
        stats.latency_ns[static_cast<std::size_t>(OpKind::kCreate)];
    std::fprintf(stderr,
                 "cycle %d%s: setup %.1f ms, %.3f s, %.0f ops/s, "
                 "create p50 %.1f us, WAL %.1f MB\n",
                 cycles, cycle_traced ? " traced" : "",
                 cycle_setup_s.back() * 1e3, wall_s,
                 static_cast<double>(stats.ops) / wall_s,
                 Quantile(creates, 0.5) / 1e3,
                 static_cast<double>(deltas[1].io_bytes + deltas[2].io_bytes +
                                     deltas[0].io_bytes) / 1e6);
    for (const auto& e : stats.errors) errors.push_back(e);
    if (!cycle_traced) {
      untraced_rates.push_back(static_cast<double>(stats.ops) / wall_s);
    }
    (cycle_traced ? traced : untraced).Merge(std::move(stats));
    (cycle_traced ? traced_wall_s : untraced_wall_s) += wall_s;
    ++cycles;
    if (!errors.empty()) break;  // a wrong namespace: stop at once
    const bool enough = Seconds(NowNs() - run_start) >= args.seconds;
    if (enough && (!args.trace || cycles >= 2)) break;
  }
  fs::remove_all(args.run_dir, ec);
  if (!error.empty()) errors.push_back(error);

  std::map<std::string, Metric> metrics;
  std::map<std::string, double> stage_sums;
  if (args.trace) {
    metrics = layers.Metrics();
    const double traced_rate =
        traced_wall_s > 0 ? static_cast<double>(traced.ops) / traced_wall_s : 0;
    const double untraced_rate =
        untraced_wall_s > 0 ? static_cast<double>(untraced.ops) / untraced_wall_s
                            : 0;
    metrics["trace.overhead_ratio"] = {
        untraced_rate > 0 ? traced_rate / untraced_rate : 0, "ratio"};
    stage_sums = layers.StageSumRatios();
    for (const auto& e : layers.CheckErrors()) errors.push_back(e);
  } else {
    metrics = EndToEnd(untraced, untraced_rates, setup_s);
  }

  CycleStats& timed = args.trace ? traced : untraced;
  std::string samples = "{";
  std::string p99_us = "{";
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    if (samples.size() > 1) samples += ", ";
    if (p99_us.size() > 1) p99_us += ", ";
    const std::string op = Quote(OpName(static_cast<OpKind>(k)));
    samples += op + ": " + std::to_string(timed.latency_ns[k].size());
    p99_us += op + ": " + Num(Quantile(timed.latency_ns[k], 0.99) / 1e3);
  }
  p99_us += "}";
  samples += ", \"setup\": " + std::to_string(setup_s.size()) + "}";
  const std::string cycle_setup = Num(Median(cycle_setup_s));
  std::string stage_json = "{";
  for (const auto& [op, ratio] : stage_sums) {
    if (stage_json.size() > 1) stage_json += ", ";
    stage_json += Quote(op) + ": " + Num(ratio);
  }
  stage_json += "}";
  std::string errors_json = "[";
  for (const auto& e : errors) {
    if (errors_json.size() > 1) errors_json += ", ";
    errors_json += Quote(e);
  }
  errors_json += "]";

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  const bool correct = errors.empty() && failed == 0 && attempted > 0;
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"cycles\": %d, \"cycle_setup_s\": %s, \"host\": %s, \"samples\": %s, "
      "\"p99_us\": %s, "
      "\"stage_sum_ratio\": %s, "
      "\"errors\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.smoke ? "true" : "false", cycles,
      cycle_setup.c_str(), FingerprintJson(host).c_str(), samples.c_str(),
      p99_us.c_str(), stage_json.c_str(),
      errors_json.c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace locobench

int main(int argc, char** argv) { return locobench::Main(argc, argv); }
