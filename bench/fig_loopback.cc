// Loopback driver: the real LocoFS stack over loopback TCP, swept over
// server worker count x submission mode.
//
// Stack (fresh per sweep point): one DMS, two FMS and one OSD, each behind
// a net::TcpServer configured the way the daemons run it — stores under a
// fresh temporary --store-dir (WAL appends, no fsync), a dedup window over
// the idempotent replay set, the DMS as the notify sink — and one
// core::Connect mount (resilience and notify on) shared by every caller.
// Nothing models device time: an op costs what this host's handlers,
// stores and sockets cost.
//
// Workload: create --files files in one directory, then stat them, all
// through core::LocoClient, in one of three submission modes:
//   per_op     one caller, Create / StatFile.
//   pipelined  --callers threads, each with its own LocoClient on the
//              shared mount, taking every K-th file.
//   batched    one caller, CreateMany / StatMany in frames of --batch
//              names, then a ReaddirPlus count check.
// Server workers sweep {1, 2, 4}.  Per-op latency is one histogram per
// phase; batched splits a frame's time evenly over its names, so its p99
// rests on ceil(files / batch) frames.
//
// Floors, checked at every worker count (exit 1 unless all hold):
// aggregate pipelined >= 1.5x per_op, aggregate batched >= 2x per_op.
//
// Output: a table on stdout and a JSON record (--out, default
// BENCH_loopback.json) carrying the host fingerprint and every sweep point.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "host.h"
#include "net/dedup.h"
#include "net/task.h"
#include "net/tcp.h"

namespace loco::bench {
namespace {

using Clock = std::chrono::steady_clock;

const std::string kDir = "/d";

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "fig_loopback: %s\n", what.c_str());
  std::exit(1);
}

std::string HostPort(const net::TcpServer& server) {
  return server.host() + ":" + std::to_string(server.port());
}

// DMS + 2 FMS + OSD behind loopback TcpServers, one mount over them.
class Stack {
 public:
  explicit Stack(int workers) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "fig_loopback.XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) Die("mkdtemp failed");
    dir_ = tmpl;
    net::TcpServer::Options base;
    base.workers = workers;
    core::ClientOptions client;

    core::DirectoryMetadataServer::Options dms_options;
    dms_options.kv.dir = dir_ + "/dms";
    dms_ = std::make_unique<core::DirectoryMetadataServer>(dms_options);
    net::TcpServer::Options dms_server = base;
    dms_server.on_notify_disconnect = [dms = dms_.get()](std::uint64_t c) {
      dms->DropClientLeases(c);
    };
    net::TcpServer& dms_tcp = Serve(dms_.get(), dms_server);
    dms_->SetNotifier(&dms_tcp);
    client.dms = {HostPort(dms_tcp)};

    for (std::uint32_t sid = 1; sid <= 2; ++sid) {
      core::FileMetadataServer::Options fms_options;
      fms_options.sid = sid;
      fms_options.kv.dir = dir_ + "/fms" + std::to_string(sid);
      fms_.push_back(std::make_unique<core::FileMetadataServer>(fms_options));
      client.fms.push_back(HostPort(Serve(fms_.back().get(), base)));
    }

    core::ObjectStoreServer::Options osd_options;
    osd_options.kv.dir = dir_ + "/osd";
    osd_ = std::make_unique<core::ObjectStoreServer>(osd_options);
    client.object_stores = {HostPort(Serve(osd_.get(), base))};

    auto mount = core::Connect(client);
    if (!mount.ok()) Die("core::Connect: " + mount.status().ToString());
    mount_ = std::make_unique<core::MountHandle>(std::move(*mount));
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    mount_.reset();
    servers_.clear();  // stops them
    dedup_.clear();
    dms_.reset();
    fms_.clear();
    osd_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  std::unique_ptr<core::LocoClient> NewClient() const {
    core::LocoClient::Config config = mount_->config;
    config.now = [] {
      return static_cast<std::uint64_t>(common::WallClockNs());
    };
    auto client = std::make_unique<core::LocoClient>(mount_->rpc(), config);
    client->SetIdentity(fs::Identity{1000, 1000});
    return client;
  }

 private:
  net::TcpServer& Serve(net::RpcHandler* handler,
                        net::TcpServer::Options options) {
    dedup_.push_back(std::make_unique<net::DedupWindow>(
        core::proto::IdempotentReplayOps()));
    options.dedup = dedup_.back().get();
    options.epoch = 1;
    servers_.push_back(std::make_unique<net::TcpServer>(handler, options));
    if (Status s = servers_.back()->Start(); !s.ok()) {
      Die("TcpServer::Start: " + s.ToString());
    }
    return *servers_.back();
  }

  std::string dir_;
  std::unique_ptr<core::DirectoryMetadataServer> dms_;
  std::vector<std::unique_ptr<core::FileMetadataServer>> fms_;
  std::unique_ptr<core::ObjectStoreServer> osd_;
  std::vector<std::unique_ptr<net::DedupWindow>> dedup_;
  std::vector<std::unique_ptr<net::TcpServer>> servers_;
  std::unique_ptr<core::MountHandle> mount_;
};

// Unscoped: a mode indexes the two tables below.
enum Mode { kPerOp, kPipelined, kBatched };
constexpr const char* kModeName[] = {"per_op", "pipelined", "batched"};
// Aggregate throughput floor against per_op at the same worker count.
constexpr double kFloor[] = {1.0, 1.5, 2.0};

struct Config {
  int files = 10000;
  int callers = 8;
  int batch = 64;
};

struct Phase {
  double seconds = 0;
  common::Histogram latency;  // per op, ns
};

struct Point {
  int workers = 0;
  Mode mode = kPerOp;
  int files = 0;
  Phase create;
  Phase stat;
  double vs_per_op = 1;  // aggregate, against per_op at these workers

  double OpsPerSec(const Phase& p) const { return files / p.seconds; }
  double Aggregate() const {
    return 2.0 * files / (create.seconds + stat.seconds);
  }
};

common::Nanos Since(Clock::time_point t0) {
  return std::chrono::nanoseconds(Clock::now() - t0).count();
}

// Single ops on names[first], names[first + stride], ...
Status RunOps(core::LocoClient& client, const std::vector<std::string>& names,
              std::size_t first, std::size_t stride, bool create,
              common::Histogram* latency) {
  for (std::size_t i = first; i < names.size(); i += stride) {
    const std::string path = kDir + "/" + names[i];
    const auto t0 = Clock::now();
    const Status s = create ? net::RunInline(client.Create(path, 0644))
                            : net::RunInline(client.StatFile(path)).status();
    latency->Record(Since(t0));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// CreateMany / StatMany frames of `batch` names.
Status RunFrames(core::LocoClient& client,
                 const std::vector<std::string>& names, std::size_t batch,
                 bool create, common::Histogram* latency) {
  for (std::size_t off = 0; off < names.size(); off += batch) {
    std::vector<std::string> chunk(
        names.begin() + off,
        names.begin() + std::min(names.size(), off + batch));
    const std::size_t n = chunk.size();
    std::vector<ErrCode> codes;
    const auto t0 = Clock::now();
    if (create) {
      auto r = net::RunInline(client.CreateMany(kDir, std::move(chunk), 0644));
      if (!r.ok()) return r.status();
      codes = std::move(*r);
    } else {
      auto r = net::RunInline(client.StatMany(kDir, std::move(chunk)));
      if (!r.ok()) return r.status();
      for (const auto& entry : *r) codes.push_back(entry.code);
    }
    const common::Nanos per_op = Since(t0) / static_cast<common::Nanos>(n);
    for (const ErrCode code : codes) {
      if (code != ErrCode::kOk) return ErrStatus(code);
      latency->Record(per_op);
    }
  }
  return Status::Ok();
}

Point RunPoint(int workers, Mode mode, const Config& cfg) {
  Stack stack(workers);
  const int callers = mode == kPipelined ? cfg.callers : 1;
  std::vector<std::unique_ptr<core::LocoClient>> clients;
  for (int k = 0; k < callers; ++k) clients.push_back(stack.NewClient());
  if (Status s = net::RunInline(clients[0]->Mkdir(kDir, 0755)); !s.ok()) {
    Die("mkdir: " + s.ToString());
  }
  std::vector<std::string> names;
  for (int i = 0; i < cfg.files; ++i) names.push_back("f" + std::to_string(i));

  Point point;
  point.workers = workers;
  point.mode = mode;
  point.files = cfg.files;
  for (const bool create : {true, false}) {
    Phase& phase = create ? point.create : point.stat;
    std::vector<common::Histogram> latency(static_cast<std::size_t>(callers));
    std::vector<Status> status(static_cast<std::size_t>(callers));
    const auto start = Clock::now();
    if (mode == kBatched) {
      status[0] = RunFrames(*clients[0], names,
                            static_cast<std::size_t>(cfg.batch), create,
                            &latency[0]);
    } else {
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < clients.size(); ++k) {
        threads.emplace_back([&, k] {
          status[k] = RunOps(*clients[k], names, k, clients.size(), create,
                             &latency[k]);
        });
      }
      for (auto& t : threads) t.join();
    }
    phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    for (std::size_t k = 0; k < latency.size(); ++k) {
      if (!status[k].ok()) {
        Die(std::string(create ? "create" : "stat") + " (" + kModeName[mode] +
            "): " + status[k].ToString());
      }
      phase.latency.Merge(latency[k]);
    }
  }
  if (mode == kBatched) {
    auto listing = net::RunInline(clients[0]->ReaddirPlus(kDir));
    if (!listing.ok()) Die("ReaddirPlus: " + listing.status().ToString());
    if (listing->size() != names.size()) {
      Die("ReaddirPlus saw " + std::to_string(listing->size()) + " of " +
          std::to_string(names.size()) + " files");
    }
  }
  return point;
}

double Us(common::Nanos ns) { return static_cast<double>(ns) / 1000.0; }

std::string P50P99(const Phase& p) {
  return Table::Num(Us(p.latency.Percentile(0.5)), 1) + "/" +
         Table::Num(Us(p.latency.Percentile(0.99)), 1);
}

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  using namespace loco;
  bench::MetricsDump metrics(argc, argv);

  bench::Config cfg;
  std::string out = "BENCH_loopback.json";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (common::FlagValue(argc, argv, &i, "--out", &value)) {
      out = value;
    } else if (common::FlagValue(argc, argv, &i, "--files", &value)) {
      cfg.files = std::atoi(value.c_str());
    } else if (common::FlagValue(argc, argv, &i, "--callers", &value)) {
      cfg.callers = std::atoi(value.c_str());
    } else if (common::FlagValue(argc, argv, &i, "--batch", &value)) {
      cfg.batch = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr,
                   "fig_loopback: unknown argument '%s'\n"
                   "usage: fig_loopback [--out file.json] [--files N]"
                   " [--callers K] [--batch B] [--metrics-out file.json]\n",
                   argv[i]);
      return 2;
    }
  }
  if (cfg.files < 1 || cfg.callers < 1 || cfg.batch < 1) {
    std::fprintf(stderr, "fig_loopback: bad flag value\n");
    return 2;
  }

  bench::PrintBanner("Loopback stack: server workers x submission mode",
                     "create+stat of one directory through LocoClient, "
                     "DMS + 2 FMS + OSD over loopback TCP, WAL stores");
  const std::string host = locobench::FingerprintJson(locobench::MeasureHost());
  std::printf("host: %s\nfiles=%d callers=%d batch=%d\n\n", host.c_str(),
              cfg.files, cfg.callers, cfg.batch);

  std::vector<bench::Point> points;
  bool pass = true;
  bench::Table table({"workers", "mode", "create/s", "stat/s", "aggregate/s",
                      "vs per_op", "create p50/p99 us", "stat p50/p99 us"});
  for (const int workers : {1, 2, 4}) {
    double per_op = 0;
    for (const bench::Mode mode :
         {bench::kPerOp, bench::kPipelined, bench::kBatched}) {
      bench::Point p = bench::RunPoint(workers, mode, cfg);
      metrics.Phase("workers=" + std::to_string(workers) + "/" +
                    bench::kModeName[mode]);
      if (mode == bench::kPerOp) per_op = p.Aggregate();
      p.vs_per_op = p.Aggregate() / per_op;
      const bool ok = p.vs_per_op >= bench::kFloor[mode];
      pass = pass && ok;
      table.AddRow({std::to_string(workers), bench::kModeName[mode],
                    bench::Table::Num(p.OpsPerSec(p.create), 0),
                    bench::Table::Num(p.OpsPerSec(p.stat), 0),
                    bench::Table::Num(p.Aggregate(), 0),
                    bench::Table::Num(p.vs_per_op, 2) + (ok ? "x" : "x LOW"),
                    bench::P50P99(p.create), bench::P50P99(p.stat)});
      points.push_back(std::move(p));
    }
  }
  table.Print();
  std::printf("\nfloors (pipelined >= %.1fx, batched >= %.1fx per_op at "
              "every worker count): %s\n",
              bench::kFloor[bench::kPipelined], bench::kFloor[bench::kBatched],
              pass ? "pass" : "FAIL");

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig_loopback: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"fig_loopback\",\n  \"host\": %s,\n"
               "  \"files\": %d,\n  \"callers\": %d,\n  \"batch\": %d,\n"
               "  \"stores\": \"WAL appends, no fsync\",\n  \"results\": [\n",
               host.c_str(), cfg.files, cfg.callers, cfg.batch);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bench::Point& p = points[i];
    std::fprintf(
        f,
        "    {\"workers\": %d, \"mode\": \"%s\", "
        "\"create_ops_per_sec\": %.0f, \"stat_ops_per_sec\": %.0f, "
        "\"aggregate_ops_per_sec\": %.0f, \"vs_per_op\": %.2f,\n"
        "     \"create_p50_us\": %.1f, \"create_p99_us\": %.1f, "
        "\"stat_p50_us\": %.1f, \"stat_p99_us\": %.1f}%s\n",
        p.workers, bench::kModeName[p.mode], p.OpsPerSec(p.create),
        p.OpsPerSec(p.stat), p.Aggregate(), p.vs_per_op,
        bench::Us(p.create.latency.Percentile(0.5)),
        bench::Us(p.create.latency.Percentile(0.99)),
        bench::Us(p.stat.latency.Percentile(0.5)),
        bench::Us(p.stat.latency.Percentile(0.99)),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"floors\": {\"pipelined_vs_per_op\": %.1f, "
               "\"batched_vs_per_op\": %.1f, \"pass\": %s}\n}\n",
               bench::kFloor[bench::kPipelined], bench::kFloor[bench::kBatched],
               pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  if (!pass) {
    std::fprintf(stderr, "fig_loopback: a speedup floor failed\n");
    return 1;
  }
  return 0;
}
