// Async I/O path sweep: how requests are *submitted* to the server — one at
// a time, pipelined, or batched into one frame.
//
// Workload: fig15_concurrency's metadata mix — create N files, then stat
// them — against one FileMetadataServer behind a real loopback
// net::TcpServer whose handler charges the ~60 us modeled journal commit
// per mutation (core::DeviceProfile, Table 2 metadata SSD; one group commit
// per batch frame, exactly like fig_batch).  The bench speaks raw
// kFmsCreate / kFmsGetAttr frames over one net::TcpChannel: LocoFS's file
// metadata is keyed by (dir_uuid, name) with no DMS consultation, so a
// single FMS carries the whole workload — the loose coupling the paper is
// named for.
//
// Modes:
//   per-op    one call in flight; each op pays a full round trip and a
//             full journal commit before the next is sent.
//   pipelined --depth (default 16) calls ride the connection back-to-back
//             as one TcpChannel fan-out; the server's worker pool
//             overlaps their journal commits.
//   batched   --batch (default 64) sub-ops per kFmsBatchCreate /
//             kFmsBatchStat frame; one round trip and one group commit
//             cover the whole frame.
//
// The acceptance floor is pipelined >= 1.5x per-op at depth 16.
//
// A final section replays a small traced workload on the simulator with
// SimCluster::EnableTracing and prints the op-level timeline — when each
// RPC leg was issued, where it ran, and when it completed — so overlap (or
// its absence) is visible per server, not just as an aggregate rate.
//
// Output: tables on stdout and a JSON record (--out, default
// BENCH_async.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/proto.h"
#include "fs/types.h"
#include "fs/wire.h"
#include "net/task.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "sim/simulation.h"

namespace loco::bench {
namespace {

// Charges the modeled metadata-journal commit: one append per single-op
// create, one group commit (fixed latency paid once, bytes scaling with the
// sub-ops) per batch-create frame.  Stats stay device-free.
class AsyncJournalChargeHandler final : public net::RpcHandler {
 public:
  AsyncJournalChargeHandler(net::RpcHandler* inner, core::DeviceProfile device)
      : inner_(inner), device_(device) {}

  net::RpcResponse Handle(std::uint16_t opcode,
                          std::string_view payload) override {
    return HandleCtx(opcode, payload, net::HandlerContext{});
  }
  net::RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                             const net::HandlerContext& ctx) override {
    net::RpcResponse resp = inner_->HandleCtx(opcode, payload, ctx);
    switch (opcode) {
      case core::proto::kFmsCreate:
        resp.extra_service_ns += device_.Cost(1, 200);
        break;
      case core::proto::kFmsBatchCreate: {
        std::vector<std::string_view> subops;
        if (net::wire::DecodeBatchRequest(payload, &subops) &&
            !subops.empty()) {
          resp.extra_service_ns += device_.Cost(1, 200 * subops.size());
        }
        break;
      }
      default:
        break;
    }
    return resp;
  }

 private:
  net::RpcHandler* inner_;
  core::DeviceProfile device_;
};

struct ModeResult {
  double create_ops_per_sec = 0;
  double stat_ops_per_sec = 0;
  double aggregate_ops_per_sec = 0;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// TcpChannel completes a fan-out inline, so a plain out-param works.
std::vector<net::RpcResponse> BlockingFanOut(net::Channel& channel,
                                             std::vector<net::CallLeg> legs) {
  std::vector<net::RpcResponse> out;
  channel.FanOutAsync(
      std::move(legs), net::CallMeta{},
      [&out](std::vector<net::RpcResponse> r) { out = std::move(r); });
  return out;
}

void Die(const char* what) {
  std::fprintf(stderr, "fig_async: %s failed\n", what);
  std::exit(1);
}

enum class Mode { kPerOp, kPipelined, kBatched };

// One create-all-then-stat-all run.
ModeResult RunMode(Mode mode, int files, int depth, int batch, int workers) {
  core::FileMetadataServer::Options fms_options;
  fms_options.sid = 1;
  core::FileMetadataServer fms(fms_options);
  const core::DeviceProfile journal{60'000, 450e6};  // Table 2 metadata SSD
  AsyncJournalChargeHandler charged(&fms, journal);

  net::TcpServer::Options server_options;
  server_options.workers = workers;
  net::TcpServer server(&charged, server_options);
  if (!server.Start().ok()) Die("TcpServer::Start");

  net::TcpChannel channel;
  const net::NodeId node = 1;
  channel.Register(node, server.host(), server.port());

  // LocoFS file metadata is keyed by (dir_uuid, name); no DMS round trip is
  // needed, so a synthetic directory uuid stands in for the parent.
  const fs::Uuid dir = fs::Uuid::Make(1, 42);
  const fs::Identity who{1000, 1000};
  auto create_payload = [&](int i) {
    return fs::Pack(dir, "f" + std::to_string(i), std::uint32_t{0644}, who,
                    static_cast<std::uint64_t>(i + 1));
  };
  auto stat_payload = [&](int i) {
    return fs::Pack(dir, "f" + std::to_string(i));
  };

  const auto now = [] { return std::chrono::steady_clock::now(); };
  auto check = [](const net::RpcResponse& resp, const char* what) {
    if (resp.code != ErrCode::kOk) {
      std::fprintf(stderr, "fig_async: %s returned code %d\n", what,
                   static_cast<int>(resp.code));
      std::exit(1);
    }
  };

  // Drives one phase (create or stat) in the selected submission mode.
  auto run_phase = [&](bool create_phase) {
    const std::uint16_t op = create_phase ? core::proto::kFmsCreate
                                          : core::proto::kFmsGetAttr;
    const std::uint16_t batch_op = create_phase
                                       ? core::proto::kFmsBatchCreate
                                       : core::proto::kFmsBatchStat;
    auto payload = [&](int i) {
      return create_phase ? create_payload(i) : stat_payload(i);
    };
    const auto start = now();
    switch (mode) {
      case Mode::kPerOp:
        for (int i = 0; i < files; ++i) {
          const auto resp = BlockingFanOut(channel, {{node, op, payload(i)}});
          check(resp.at(0), "per-op call");
        }
        break;
      case Mode::kPipelined:
        for (int off = 0; off < files; off += depth) {
          const int n = std::min(depth, files - off);
          std::vector<net::CallLeg> legs;
          legs.reserve(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) legs.push_back({node, op, payload(off + i)});
          const auto resps = BlockingFanOut(channel, std::move(legs));
          for (const auto& resp : resps) check(resp, "pipelined call");
        }
        break;
      case Mode::kBatched:
        for (int off = 0; off < files; off += batch) {
          const int n = std::min(batch, files - off);
          std::vector<std::string> subops;
          subops.reserve(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) subops.push_back(payload(off + i));
          const auto resp = BlockingFanOut(
              channel, {{node, batch_op, net::wire::EncodeBatchRequest(subops)}});
          check(resp.at(0), "batch frame");
          std::vector<net::wire::BatchItem> items;
          if (!net::wire::DecodeBatchResponse(resp.at(0).payload, &items) ||
              items.size() != static_cast<std::size_t>(n)) {
            Die("batch response decode");
          }
          for (const auto& item : items) {
            if (item.code != ErrCode::kOk) Die("batch sub-op");
          }
        }
        break;
    }
    return files / Seconds(now() - start);
  };

  ModeResult result;
  result.create_ops_per_sec = run_phase(/*create_phase=*/true);
  result.stat_ops_per_sec = run_phase(/*create_phase=*/false);
  result.aggregate_ops_per_sec =
      2.0 * files / (files / result.create_ops_per_sec +
                     files / result.stat_ops_per_sec);
  server.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// Traced timeline: the same create+stat shape on the simulator, with
// SimCluster's per-op trace ring recording every RPC leg.

const char* OpName(std::uint16_t opcode) {
  switch (opcode) {
    case core::proto::kDmsMkdir: return "dms.mkdir";
    case core::proto::kDmsLookup: return "dms.lookup";
    case core::proto::kDmsStat: return "dms.stat";
    case core::proto::kFmsCreate: return "fms.create";
    case core::proto::kFmsGetAttr: return "fms.getattr";
    case core::proto::kFmsOpen: return "fms.open";
    case core::proto::kFmsOpenSession: return "fms.open_session";
    case core::proto::kObjWrite: return "osd.write";
    case core::proto::kObjRead: return "osd.read";
    default: return nullptr;
  }
}

std::vector<sim::SimCluster::OpTrace> TracedTimeline(int timeline_ops) {
  sim::ClusterConfig cluster = PaperCluster();
  sim::Simulation sim;
  sim::SimCluster sc(&sim, cluster);
  sc.EnableTracing(/*capacity=*/4096);
  DeployOptions deploy;
  deploy.metadata_servers = 2;
  Deployment dep = Deploy(System::kLocoC, &sc, deploy);
  fs::TimeFn now_fn = [&sim] { return static_cast<std::uint64_t>(sim.Now()); };

  auto ch = sc.NewClientChannel();
  auto client = dep.make_client(*ch, now_fn);
  bool ok = false;
  sim.Schedule(0, [&] {
    net::StartTask(
        [](fs::FileSystemClient& fsc, int ops) -> net::Task<Status> {
          Status st = co_await fsc.Mkdir("/timeline", 0755);
          if (!st.ok()) co_return st;
          for (int i = 0; i < ops; ++i) {
            st = co_await fsc.Create("/timeline/f" + std::to_string(i), 0644);
            if (!st.ok()) co_return st;
          }
          for (int i = 0; i < ops; ++i) {
            auto attr =
                co_await fsc.StatFile("/timeline/f" + std::to_string(i));
            if (!attr.ok()) co_return attr.status();
          }
          co_return Status::Ok();
        }(*client, timeline_ops),
        [&](Status st) { ok = st.ok(); });
  });
  sim.Run();
  if (!ok) Die("traced sim workload");
  return {sc.traces().begin(), sc.traces().end()};
}

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  using namespace loco;
  bench::MetricsDump metrics(argc, argv);

  std::string out = "BENCH_async.json";
  int files = 2000;
  int depth = 16;
  int batch = 64;
  int workers = 4;
  int timeline_ops = 6;
  auto flag = [&](int* i, const char* name, std::string* value) {
    const std::string_view arg = argv[*i];
    const std::size_t len = std::strlen(name);
    if (arg == name && *i + 1 < argc) {
      *value = argv[++*i];
      return true;
    }
    if (arg.size() > len + 1 && arg.substr(0, len) == name &&
        arg[len] == '=') {
      *value = std::string(arg.substr(len + 1));
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (flag(&i, "--out", &value)) {
      out = value;
    } else if (flag(&i, "--files", &value)) {
      files = std::atoi(value.c_str());
    } else if (flag(&i, "--depth", &value)) {
      depth = std::atoi(value.c_str());
    } else if (flag(&i, "--batch", &value)) {
      batch = std::atoi(value.c_str());
    } else if (flag(&i, "--workers", &value)) {
      workers = std::atoi(value.c_str());
    } else if (flag(&i, "--timeline-ops", &value)) {
      timeline_ops = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr,
                   "fig_async: unknown argument '%s'\n"
                   "usage: fig_async [--out file.json] [--files N]"
                   " [--depth D] [--batch B] [--workers W]"
                   " [--timeline-ops T] [--metrics-out file.json]\n",
                   argv[i]);
      return 2;
    }
  }
  if (files < 1 || depth < 1 || batch < 1 || workers < 0 ||
      timeline_ops < 1) {
    std::fprintf(stderr, "fig_async: bad flag value\n");
    return 2;
  }

  bench::PrintBanner(
      "Async I/O path: submission mode",
      "create+stat against one FMS, loopback TCP, 60us modeled journal "
      "commit; per-op vs pipelined vs batched");
  std::printf("files=%d depth=%d batch=%d server workers=%d\n\n", files,
              depth, batch, workers);

  const bench::ModeResult per_op =
      bench::RunMode(bench::Mode::kPerOp, files, depth, batch, workers);
  metrics.Phase("per_op");
  const bench::ModeResult pipelined =
      bench::RunMode(bench::Mode::kPipelined, files, depth, batch, workers);
  metrics.Phase("pipelined");
  const bench::ModeResult batched =
      bench::RunMode(bench::Mode::kBatched, files, depth, batch, workers);
  metrics.Phase("batched");
  bench::Table table({"mode", "create/s", "stat/s", "aggregate/s"});
  auto row = [&](const char* mode, const bench::ModeResult& r) {
    table.AddRow({mode, bench::Table::Num(r.create_ops_per_sec, 0),
                  bench::Table::Num(r.stat_ops_per_sec, 0),
                  bench::Table::Num(r.aggregate_ops_per_sec, 0)});
  };
  row("per-op", per_op);
  row("pipelined", pipelined);
  row("batched", batched);
  table.Print();

  const double pipelined_speedup =
      pipelined.aggregate_ops_per_sec / per_op.aggregate_ops_per_sec;
  const double batched_speedup =
      batched.aggregate_ops_per_sec / per_op.aggregate_ops_per_sec;
  std::printf(
      "pipelined vs per-op %.2fx, batched vs per-op %.2fx (aggregate)\n",
      pipelined_speedup, batched_speedup);

  // Traced timeline: issued -> completed spans per server on the simulator.
  const auto traces = bench::TracedTimeline(timeline_ops);
  std::printf("\nTraced timeline (simulated, %zu RPC legs):\n",
              traces.size());
  bench::Table timeline(
      {"op", "server", "issued us", "completed us", "span us"});
  std::map<net::NodeId, std::uint64_t> busy_per_server;
  for (const auto& t : traces) {
    const char* name = bench::OpName(t.opcode);
    timeline.AddRow({name ? name : ("op" + std::to_string(t.opcode)),
                     "node" + std::to_string(t.server),
                     bench::Table::Num(t.issued / 1000.0, 1),
                     bench::Table::Num(t.completed / 1000.0, 1),
                     bench::Table::Num((t.completed - t.issued) / 1000.0, 1)});
    busy_per_server[t.server] +=
        static_cast<std::uint64_t>(t.completed - t.issued);
  }
  timeline.Print();
  for (const auto& [server, busy] : busy_per_server) {
    std::printf("node%u: %zu legs, %.1f us total span\n",
                static_cast<unsigned>(server),
                static_cast<std::size_t>(std::count_if(
                    traces.begin(), traces.end(),
                    [&](const auto& t) { return t.server == server; })),
                busy / 1000.0);
  }

  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fig_async\",\n  \"files\": %d,\n"
                 "  \"depth\": %d,\n  \"batch\": %d,\n"
                 "  \"server_workers\": %d,\n  \"journal_commit_us\": 60,\n",
                 files, depth, batch, workers);
    auto mode_json = [&](const char* name, const bench::ModeResult& r) {
      std::fprintf(f,
                   "  \"%s\": {\"create_ops_per_sec\": %.0f, "
                   "\"stat_ops_per_sec\": %.0f, "
                   "\"aggregate_ops_per_sec\": %.0f},\n",
                   name, r.create_ops_per_sec, r.stat_ops_per_sec,
                   r.aggregate_ops_per_sec);
    };
    mode_json("per_op", per_op);
    mode_json("pipelined", pipelined);
    mode_json("batched", batched);
    std::fprintf(f,
                 "  \"pipelined_speedup\": %.2f,\n"
                 "  \"batched_speedup\": %.2f,\n  \"timeline\": [\n",
                 pipelined_speedup, batched_speedup);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const auto& t = traces[i];
      const char* name = bench::OpName(t.opcode);
      std::fprintf(
          f,
          "    {\"op\": \"%s\", \"opcode\": %u, \"server\": %u, "
          "\"issued_us\": %.1f, \"completed_us\": %.1f}%s\n",
          name ? name : "other", static_cast<unsigned>(t.opcode),
          static_cast<unsigned>(t.server), t.issued / 1000.0,
          t.completed / 1000.0, i + 1 < traces.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "fig_async: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
