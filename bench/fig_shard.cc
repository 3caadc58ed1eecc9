// DMS sharding scale-out: directory-op throughput as the directory
// metadata service is partitioned across 1 / 2 / 4 shards.
//
// LocoFS's single-DMS design trades directory-op scale-out for strong
// rename/permission locality; docs/SHARDING.md adds the multi-shard mode
// back behind the shard-set client API.  This bench quantifies both sides
// of that trade on the simulated cluster (4 metadata nodes, so shard i
// co-hosts on node i and FMS capacity stays constant across configs):
//
//   mkdir / rename(intra)  — subtree-local ops, routed per shard: expected
//                            to scale ~linearly while shards <= nodes.
//   create                 — FMS-bound with a leased parent lookup: expected
//                            flat (the FMS count never changes).
//   rename(cross)          — the 2PC subtree transfer between shards: the
//                            price of partitioning, reported per shard count.
//
// Client workdirs are top-level subtrees assigned round-robin over the
// shard map (balanced population; core/shard.h placement is deterministic,
// so the bench and the clients agree without coordination).  The default
// client count (256) is chosen to saturate a single DMS node (~320K ops/s
// of 25 us request slots over 8 cores) so the sweep measures server
// capacity, not client-side RTT pacing.
//
// Output: a table on stdout and a JSON record (--out, default
// BENCH_shard.json) with per-phase ops/s per shard count and the
// dir-op aggregate speedups; --short shrinks the population for CI smoke
// runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "benchlib/deploy.h"
#include "core/shard.h"
#include "fs/path.h"
#include "host.h"
#include "net/task.h"
#include "sim/simulation.h"

namespace loco::bench {
namespace {

struct ClientCtx {
  std::unique_ptr<sim::SimChannel> channel;
  std::unique_ptr<fs::FileSystemClient> fsc;
  std::string workdir;   // this client's top-level subtree
  std::string xworkdir;  // a subtree on the *next* shard (cross-shard target)
};

// One measured phase: every client issues `count` ops from `op`.
using OpFn = std::function<net::Task<Status>(ClientCtx&, int)>;

sim::RunStats RunPhase(sim::Simulation* sim, sim::SimCluster* cluster,
                       std::vector<ClientCtx>* clients, int count,
                       const OpFn& op) {
  sim::RunStats stats;
  std::vector<std::unique_ptr<sim::ClosedLoopClient>> drivers;
  drivers.reserve(clients->size());
  for (ClientCtx& ctx : *clients) {
    auto source = [&ctx, count, op, next = 0](net::Channel&) mutable
        -> std::optional<sim::ClosedLoopClient::Op> {
      if (next >= count) return std::nullopt;
      const int i = next++;
      return sim::ClosedLoopClient::Op{op(ctx, i), 0};
    };
    drivers.push_back(std::make_unique<sim::ClosedLoopClient>(
        cluster, ctx.channel.get(), std::move(source), &stats));
  }
  for (auto& d : drivers) d->Start();
  sim->Run();
  return stats;
}

struct PhasePoint {
  double iops = 0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  double seconds() const { return iops > 0 ? static_cast<double>(ops) / iops : 0; }
};

struct ShardResult {
  int shards = 0;
  PhasePoint mkdir, create, rename_intra, rename_cross;
  // Aggregate throughput over the DMS-bound phases (mkdir + intra-shard
  // rename): total ops over total virtual time.
  double dir_iops() const {
    const double t = mkdir.seconds() + rename_intra.seconds();
    return t > 0 ? static_cast<double>(mkdir.ops + rename_intra.ops) / t : 0;
  }
};

PhasePoint Point(const sim::RunStats& stats) {
  PhasePoint p;
  p.iops = stats.Throughput();
  p.ops = stats.total_ops();
  p.errors = stats.TotalErrors();
  return p;
}

// Top-level subtree names assigned round-robin over the shard map, so every
// shard carries clients/shards subtrees regardless of how the ring hashes.
std::vector<std::string> BalancedWorkdirs(int shards, int clients) {
  const core::ShardMap map(static_cast<std::size_t>(shards));
  std::vector<std::string> out;
  int counter = 0;
  for (int c = 0; c < clients; ++c) {
    const auto want = static_cast<std::size_t>(c % shards);
    for (;; ++counter) {
      std::string name = "/w" + std::to_string(counter);
      if (map.ShardOf(name) == want) {
        out.push_back(std::move(name));
        ++counter;
        break;
      }
    }
  }
  return out;
}

ShardResult RunOnce(int shards, int clients, int items, int xitems) {
  sim::Simulation sim;
  sim::SimCluster cluster(&sim, sim::ClusterConfig{});
  DeployOptions deploy;
  deploy.metadata_servers = 4;  // constant FMS capacity across configs
  deploy.dms_shards = shards;
  Deployment dep = Deploy(System::kLocoC, &cluster, deploy);

  fs::TimeFn now = [&sim] { return static_cast<std::uint64_t>(sim.Now()); };
  const core::ShardMap map(static_cast<std::size_t>(shards));
  const std::vector<std::string> workdirs = BalancedWorkdirs(shards, clients);

  std::vector<ClientCtx> clients_ctx(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ClientCtx& ctx = clients_ctx[static_cast<std::size_t>(c)];
    ctx.channel = cluster.NewClientChannel();
    ctx.fsc = dep.make_client(*ctx.channel, now);
    ctx.workdir = workdirs[static_cast<std::size_t>(c)];
    if (shards > 1) {
      // A peer subtree guaranteed to live on a different shard: the
      // workdir of a client whose round-robin slot is the next shard.
      const int peer = (c / shards) * shards + (c + 1) % shards;
      ctx.xworkdir = workdirs[static_cast<std::size_t>(peer % clients)] +
                     "/x" + std::to_string(c);
    }
  }

  // Setup (not measured).  Two barriers: every top-level workdir first, then
  // the cross-shard target dirs (which nest inside OTHER clients' workdirs,
  // so their parents must already exist).
  auto setup_phase = [&](const OpFn& op) {
    const sim::RunStats stats = RunPhase(&sim, &cluster, &clients_ctx, 1, op);
    if (stats.TotalErrors() != 0) {
      std::fprintf(stderr, "fig_shard: setup failed (%llu errors)\n",
                   static_cast<unsigned long long>(stats.TotalErrors()));
      std::exit(1);
    }
  };
  setup_phase([](ClientCtx& ctx, int) {
    return ctx.fsc->Mkdir(ctx.workdir, fs::kDefaultDirMode);
  });
  if (shards > 1) {
    setup_phase([](ClientCtx& ctx, int) {
      return ctx.fsc->Mkdir(ctx.xworkdir, fs::kDefaultDirMode);
    });
  }

  ShardResult result;
  result.shards = shards;
  result.mkdir = Point(RunPhase(
      &sim, &cluster, &clients_ctx, items,
      [](ClientCtx& ctx, int i) {
        return ctx.fsc->Mkdir(ctx.workdir + "/d" + std::to_string(i),
                              fs::kDefaultDirMode);
      }));
  result.create = Point(RunPhase(
      &sim, &cluster, &clients_ctx, items,
      [](ClientCtx& ctx, int i) {
        return ctx.fsc->Create(ctx.workdir + "/f" + std::to_string(i),
                               fs::kDefaultFileMode);
      }));
  result.rename_intra = Point(RunPhase(
      &sim, &cluster, &clients_ctx, items,
      [](ClientCtx& ctx, int i) {
        return ctx.fsc->Rename(ctx.workdir + "/d" + std::to_string(i),
                               ctx.workdir + "/r" + std::to_string(i));
      }));
  if (shards > 1) {
    result.rename_cross = Point(RunPhase(
        &sim, &cluster, &clients_ctx, xitems,
        [](ClientCtx& ctx, int i) {
          return ctx.fsc->Rename(ctx.workdir + "/r" + std::to_string(i),
                                 ctx.xworkdir + "/m" + std::to_string(i));
        }));
  }
  return result;
}

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  using namespace loco;
  bench::MetricsDump metrics(argc, argv);

  std::string out = "BENCH_shard.json";
  int clients = 256;
  int items = 50;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (common::FlagValue(argc, argv, &i, "--out", &value)) {
      out = value;
    } else if (common::FlagValue(argc, argv, &i, "--clients", &value)) {
      clients = std::atoi(value.c_str());
    } else if (common::FlagValue(argc, argv, &i, "--items", &value)) {
      items = std::atoi(value.c_str());
    } else if (std::strcmp(argv[i], "--short") == 0) {
      clients = 64;
      items = 10;
    } else {
      std::fprintf(stderr,
                   "fig_shard: unknown argument '%s'\n"
                   "usage: fig_shard [--out file.json] [--clients K]"
                   " [--items N] [--short] [--metrics-out file.json]\n",
                   argv[i]);
      return 2;
    }
  }
  if (clients < 4 || items < 1) {
    std::fprintf(stderr, "fig_shard: bad flag value (need >= 4 clients)\n");
    return 2;
  }

  bench::PrintBanner("DMS sharding scale-out",
                     "directory-op throughput vs DMS shard count "
                     "(4 metadata nodes; docs/SHARDING.md)");
  const std::string host = locobench::FingerprintJson(locobench::MeasureHost());
  std::printf("host: %s\nclients=%d items/client=%d\n\n", host.c_str(),
              clients, items);

  const int sweep[] = {1, 2, 4};
  std::vector<bench::ShardResult> results;
  bench::Table table({"shards", "mkdir/s", "create/s", "rename/s",
                      "xrename/s", "dir agg/s"});
  for (int shards : sweep) {
    results.push_back(
        bench::RunOnce(shards, clients, items, /*xitems=*/items / 5 + 1));
    metrics.Phase("shards=" + std::to_string(shards));
    const auto& r = results.back();
    const std::uint64_t errors = r.mkdir.errors + r.create.errors +
                                 r.rename_intra.errors +
                                 r.rename_cross.errors;
    if (errors != 0) {
      std::fprintf(stderr, "fig_shard: %llu ops failed at %d shards\n",
                   static_cast<unsigned long long>(errors), shards);
      return 1;
    }
    table.AddRow({std::to_string(r.shards), bench::Table::Num(r.mkdir.iops, 0),
                  bench::Table::Num(r.create.iops, 0),
                  bench::Table::Num(r.rename_intra.iops, 0),
                  r.shards > 1 ? bench::Table::Num(r.rename_cross.iops, 0)
                               : std::string("-"),
                  bench::Table::Num(r.dir_iops(), 0)});
  }
  table.Print();

  const double speedup2 = results[1].dir_iops() / results[0].dir_iops();
  const double speedup4 = results[2].dir_iops() / results[0].dir_iops();
  std::printf("\ndir-op aggregate speedup: 2 shards %.2fx, 4 shards %.2fx\n",
              speedup2, speedup4);

  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fig_shard\",\n  \"host\": %s,\n"
                 "  \"clients\": %d,\n  \"items_per_client\": %d,\n"
                 "  \"metadata_nodes\": 4,\n  \"results\": [\n",
                 host.c_str(), clients, items);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"shards\": %d, \"mkdir_ops_per_sec\": %.0f, "
                   "\"create_ops_per_sec\": %.0f, "
                   "\"rename_ops_per_sec\": %.0f, "
                   "\"cross_shard_rename_ops_per_sec\": %.0f, "
                   "\"dir_aggregate_ops_per_sec\": %.0f}%s\n",
                   r.shards, r.mkdir.iops, r.create.iops, r.rename_intra.iops,
                   r.rename_cross.iops, r.dir_iops(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"speedup_2_vs_1\": %.2f,\n"
                 "  \"speedup_4_vs_1\": %.2f\n}\n",
                 speedup2, speedup4);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "fig_shard: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
