// Batched metadata RPCs: the "open 1M small files" ingest scenario.
//
// LocoFS's client knows every name it is about to create when an
// application unpacks an archive or opens a checkpoint directory, yet the
// per-op API pays one full RPC round trip (and one metadata-journal commit)
// per file.  kFmsBatchCreate / kFmsBatchStat / kFmsReaddirPlus carry many
// sub-ops per frame, so the fixed costs — request framing, the loopback
// round trip, and the journal's per-append latency — amortize across the
// batch.  This bench measures both paths end-to-end over real loopback
// net::TcpServers and reports ops/s plus per-op latency percentiles.
//
// Scale-down: the scenario is the paper-era "ingest a directory of 1M
// small files"; --files (default 4000) scales the file count so the bench
// finishes in seconds.  Throughput ratios are what matter and are
// insensitive to the count once past warm-up.
//
// Journal model: mutations are charged a modeled journal append
// (core::DeviceProfile, Table 2 metadata SSD).  A batched create is charged
// ONE group commit covering all of its sub-ops' bytes — the same group-
// commit behaviour a real journal exhibits when requests arrive together —
// while per-op creates pay the fixed append latency each time.
//
// Output: a table on stdout and a JSON record (--out, default
// BENCH_batch.json) with ops/s and p50/p99 per mode.  The headline number
// is batched-vs-per-op aggregate speedup (acceptance floor: >= 2x).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "net/task.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace loco::bench {
namespace {

// Charges the modeled metadata-journal commit: one append per single-op
// mutation, one group commit per batch frame (covering every sub-op's
// bytes).  Reads stay device-free.
class GroupCommitChargeHandler final : public net::RpcHandler {
 public:
  GroupCommitChargeHandler(net::RpcHandler* inner, core::DeviceProfile device)
      : inner_(inner), device_(device) {}

  net::RpcResponse Handle(std::uint16_t opcode,
                          std::string_view payload) override {
    return HandleCtx(opcode, payload, net::HandlerContext{});
  }
  net::RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                             const net::HandlerContext& ctx) override {
    net::RpcResponse resp = inner_->HandleCtx(opcode, payload, ctx);
    switch (opcode) {
      case core::proto::kDmsMkdir:
      case core::proto::kDmsRmdir:
      case core::proto::kDmsRename:
      case core::proto::kFmsCreate:
      case core::proto::kFmsRemove:
      case core::proto::kFmsSetSize:
        // ~200 B of metadata per mutation, one journal append each.
        resp.extra_service_ns += device_.Cost(1, 200);
        break;
      case core::proto::kFmsBatchCreate: {
        // One group commit for the whole frame: the fixed per-append
        // latency is paid once, the bytes still scale with the sub-ops.
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
  common::Histogram create_lat;  // per-op (batched: per sub-op, amortized)
  common::Histogram stat_lat;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string HostPort(const net::TcpServer& server) {
  return server.host() + ":" + std::to_string(server.port());
}

void Die(const char* what, const Status& s) {
  std::fprintf(stderr, "fig_batch: %s failed: %s\n", what,
               s.ToString().c_str());
  std::exit(1);
}

// Runs one ingest (create-all then stat-all) against a fresh deployment.
// `batch` == 0 selects the per-op path; otherwise names are carried in
// frames of `batch` sub-ops via CreateMany / StatMany.
ModeResult RunMode(int files, int batch, int workers) {
  core::DirectoryMetadataServer dms;
  core::FileMetadataServer::Options fms1_options;
  fms1_options.sid = 1;
  core::FileMetadataServer::Options fms2_options;
  fms2_options.sid = 2;
  core::FileMetadataServer fms1(fms1_options);
  core::FileMetadataServer fms2(fms2_options);
  core::ObjectStoreServer osd{core::ObjectStoreServer::Options{}};

  const core::DeviceProfile journal{60'000, 450e6};  // Table 2 metadata SSD
  GroupCommitChargeHandler dms_charged(&dms, journal);
  GroupCommitChargeHandler fms1_charged(&fms1, journal);
  GroupCommitChargeHandler fms2_charged(&fms2, journal);

  net::TcpServer::Options server_options;
  server_options.workers = workers;
  net::TcpServer dms_server(&dms_charged, server_options);
  net::TcpServer fms1_server(&fms1_charged, server_options);
  net::TcpServer fms2_server(&fms2_charged, server_options);
  net::TcpServer osd_server(&osd, server_options);
  if (!dms_server.Start().ok() || !fms1_server.Start().ok() ||
      !fms2_server.Start().ok() || !osd_server.Start().ok()) {
    std::fprintf(stderr, "fig_batch: failed to start loopback servers\n");
    std::exit(1);
  }

  core::ClientOptions client_options;
  client_options.dms = {HostPort(dms_server)};
  client_options.fms.push_back(HostPort(fms1_server));
  client_options.fms.push_back(HostPort(fms2_server));
  client_options.object_stores.push_back(HostPort(osd_server));
  auto mount = core::Connect(client_options);
  if (!mount.ok()) Die("core::Connect", mount.status());

  std::uint64_t clock = 0;
  auto owned = mount->MakeClient([&clock] { return ++clock; });
  owned->SetIdentity(fs::Identity{1000, 1000});
  // core::MountHandle::MakeClient always builds a LocoClient.
  auto* client = static_cast<core::LocoClient*>(owned.get());

  if (Status s = net::RunInline(client->Mkdir("/ingest", 0755)); !s.ok()) {
    Die("setup mkdir", s);
  }
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(files));
  for (int i = 0; i < files; ++i) names.push_back("f" + std::to_string(i));

  ModeResult result;
  const auto now = [] { return std::chrono::steady_clock::now(); };

  // Phase 1: create every file.
  auto create_start = now();
  if (batch == 0) {
    for (const std::string& name : names) {
      const auto t0 = now();
      const Status s =
          net::RunInline(client->Create("/ingest/" + name, 0644));
      if (!s.ok()) Die("create", s);
      result.create_lat.Record(
          std::chrono::nanoseconds(now() - t0).count());
    }
  } else {
    for (std::size_t off = 0; off < names.size();
         off += static_cast<std::size_t>(batch)) {
      const std::size_t n =
          std::min(names.size() - off, static_cast<std::size_t>(batch));
      std::vector<std::string> chunk(names.begin() + off,
                                     names.begin() + off + n);
      const auto t0 = now();
      auto codes = net::RunInline(client->CreateMany("/ingest", chunk, 0644));
      if (!codes.ok()) Die("CreateMany", codes.status());
      const auto per_op =
          std::chrono::nanoseconds(now() - t0).count() / static_cast<long>(n);
      for (const ErrCode code : *codes) {
        if (code != ErrCode::kOk) Die("CreateMany entry", ErrStatus(code));
        result.create_lat.Record(per_op);
      }
    }
  }
  result.create_ops_per_sec = files / Seconds(now() - create_start);

  // Phase 2: stat every file (the "open" half of the scenario).
  auto stat_start = now();
  if (batch == 0) {
    for (const std::string& name : names) {
      const auto t0 = now();
      auto attr = net::RunInline(client->StatFile("/ingest/" + name));
      if (!attr.ok()) Die("stat", attr.status());
      result.stat_lat.Record(std::chrono::nanoseconds(now() - t0).count());
    }
  } else {
    for (std::size_t off = 0; off < names.size();
         off += static_cast<std::size_t>(batch)) {
      const std::size_t n =
          std::min(names.size() - off, static_cast<std::size_t>(batch));
      std::vector<std::string> chunk(names.begin() + off,
                                     names.begin() + off + n);
      const auto t0 = now();
      auto entries = net::RunInline(client->StatMany("/ingest", chunk));
      if (!entries.ok()) Die("StatMany", entries.status());
      const auto per_op =
          std::chrono::nanoseconds(now() - t0).count() / static_cast<long>(n);
      for (const core::LocoClient::StatEntry& entry : *entries) {
        if (entry.code != ErrCode::kOk) Die("StatMany entry",
                                            ErrStatus(entry.code));
        result.stat_lat.Record(per_op);
      }
    }
  }
  result.stat_ops_per_sec = files / Seconds(now() - stat_start);

  // Sanity: the batched listing sees every file with its attributes.
  if (batch != 0) {
    auto listing = net::RunInline(client->ReaddirPlus("/ingest"));
    if (!listing.ok()) Die("ReaddirPlus", listing.status());
    if (listing->size() != names.size()) {
      std::fprintf(stderr, "fig_batch: ReaddirPlus saw %zu of %zu entries\n",
                   listing->size(), names.size());
      std::exit(1);
    }
  }

  result.aggregate_ops_per_sec =
      2.0 * files / (files / result.create_ops_per_sec +
                     files / result.stat_ops_per_sec);

  dms_server.Stop();
  fms1_server.Stop();
  fms2_server.Stop();
  osd_server.Stop();
  return result;
}

double Us(common::Nanos ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace
}  // namespace loco::bench

int main(int argc, char** argv) {
  using namespace loco;
  bench::MetricsDump metrics(argc, argv);

  std::string out = "BENCH_batch.json";
  int files = 4000;
  int batch = 64;
  int workers = 2;
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
    } else if (flag(&i, "--batch", &value)) {
      batch = std::atoi(value.c_str());
    } else if (flag(&i, "--workers", &value)) {
      workers = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr,
                   "fig_batch: unknown argument '%s'\n"
                   "usage: fig_batch [--out file.json] [--files N]"
                   " [--batch B] [--workers W] [--metrics-out file.json]\n",
                   argv[i]);
      return 2;
    }
  }
  if (files < 1 || batch < 1 || workers < 0) {
    std::fprintf(stderr, "fig_batch: bad flag value\n");
    return 2;
  }

  bench::PrintBanner("Batched metadata RPCs: small-file ingest",
                     "create+stat of a flat directory, per-op vs batched "
                     "frames, loopback TCP, 60us modeled journal commit");
  std::printf("files=%d batch=%d server workers=%d\n\n", files, batch,
              workers);

  bench::ModeResult per_op = bench::RunMode(files, /*batch=*/0, workers);
  metrics.Phase("per_op");
  bench::ModeResult batched = bench::RunMode(files, batch, workers);
  metrics.Phase("batched");

  bench::Table table({"mode", "create/s", "stat/s", "create p50/p99 us",
                      "stat p50/p99 us"});
  auto row = [&](const char* mode, const bench::ModeResult& r) {
    table.AddRow({mode, bench::Table::Num(r.create_ops_per_sec, 0),
                  bench::Table::Num(r.stat_ops_per_sec, 0),
                  bench::Table::Num(bench::Us(r.create_lat.Percentile(0.5)), 0) +
                      "/" +
                      bench::Table::Num(bench::Us(r.create_lat.Percentile(0.99)), 0),
                  bench::Table::Num(bench::Us(r.stat_lat.Percentile(0.5)), 0) +
                      "/" +
                      bench::Table::Num(bench::Us(r.stat_lat.Percentile(0.99)), 0)});
  };
  row("per-op", per_op);
  row("batched", batched);
  table.Print();

  const double create_speedup =
      batched.create_ops_per_sec / per_op.create_ops_per_sec;
  const double stat_speedup =
      batched.stat_ops_per_sec / per_op.stat_ops_per_sec;
  const double aggregate_speedup =
      batched.aggregate_ops_per_sec / per_op.aggregate_ops_per_sec;
  std::printf("\nbatched vs per-op: create %.2fx, stat %.2fx, aggregate "
              "%.2fx\n",
              create_speedup, stat_speedup, aggregate_speedup);

  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    auto mode_json = [&](const char* name, const bench::ModeResult& r,
                         const char* trailing) {
      std::fprintf(
          f,
          "  \"%s\": {\"create_ops_per_sec\": %.0f, "
          "\"stat_ops_per_sec\": %.0f, \"aggregate_ops_per_sec\": %.0f,\n"
          "    \"create_p50_us\": %.1f, \"create_p99_us\": %.1f, "
          "\"stat_p50_us\": %.1f, \"stat_p99_us\": %.1f}%s\n",
          name, r.create_ops_per_sec, r.stat_ops_per_sec,
          r.aggregate_ops_per_sec, bench::Us(r.create_lat.Percentile(0.5)),
          bench::Us(r.create_lat.Percentile(0.99)),
          bench::Us(r.stat_lat.Percentile(0.5)),
          bench::Us(r.stat_lat.Percentile(0.99)), trailing);
    };
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fig_batch\",\n  \"files\": %d,\n"
                 "  \"batch\": %d,\n  \"server_workers\": %d,\n"
                 "  \"journal_commit_us\": 60,\n",
                 files, batch, workers);
    mode_json("per_op", per_op, ",");
    mode_json("batched", batched, ",");
    std::fprintf(f,
                 "  \"create_speedup\": %.2f,\n  \"stat_speedup\": %.2f,\n"
                 "  \"aggregate_speedup\": %.2f\n}\n",
                 create_speedup, stat_speedup, aggregate_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "fig_batch: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
