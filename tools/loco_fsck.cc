// loco_fsck — offline consistency checker / repairer for a LocoFS cluster
// (core/fsck.h; invariants and failure model in docs/FAULTS.md).
//
//   loco_fsck --connect dms=H:P,fms=H:P[,fms=H:P...],osd=H:P[,...]
//             [--repair] [--live] [--max-passes N] [--quiet]
//
// Default is a dry run: scan, print findings, change nothing.  With
// --repair, scan→repair passes iterate until a scan is clean (repairs can
// cascade).  The cluster must be quiesced — scans are per-server snapshots
// with no cross-server atomicity — unless --live is given, which pins
// point-in-time snapshot epochs on every server (kCtlSnapshotBegin/End) and
// only acts on findings confirmed in two consecutive passes, so it is safe
// against a serving cluster (docs/HOUSEKEEPING.md).
//
// Exit codes: 0 = clean (or repaired to clean), 1 = findings remain,
// 2 = usage error, 3 = RPC failure.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.h"
#include "core/connect.h"
#include "core/fsck.h"

namespace {

constexpr const char* kUsage =
    "usage: loco_fsck --connect dms=H:P,fms=H:P[,...],osd=H:P[,...]"
    " [--repair] [--live] [--max-passes N] [--quiet]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace loco;

  std::string connect;
  std::string passes_str;
  bool repair = false;
  bool live = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (common::FlagValue(argc, argv, &i, "--connect", &connect)) continue;
    if (common::FlagValue(argc, argv, &i, "--max-passes", &passes_str)) continue;
    if (std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
      continue;
    }
    if (std::strcmp(argv[i], "--dry-run") == 0) {  // explicit default
      repair = false;
      continue;
    }
    if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
      continue;
    }
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
      continue;
    }
    std::fprintf(stderr, "loco_fsck: unknown argument '%s'\n%s", argv[i],
                 kUsage);
    return 2;
  }
  if (connect.empty()) {
    std::fprintf(stderr, "loco_fsck: --connect is required\n%s", kUsage);
    return 2;
  }

  core::FsckRunner::Options options;
  options.repair = repair;
  options.live = live;
  if (!passes_str.empty()) {
    std::uint32_t passes = 0;
    if (!common::ParseInt(passes_str, &passes) || passes == 0) {
      std::fprintf(stderr, "loco_fsck: bad --max-passes '%s'\n",
                   passes_str.c_str());
      return 2;
    }
    options.max_passes = passes;
  }

  auto client_options = core::ClientOptions::FromSpec(connect);
  if (!client_options.ok()) {
    std::fprintf(stderr, "loco_fsck: bad --connect '%s': %s\n", connect.c_str(),
                 client_options.status().message().c_str());
    return 2;
  }
  // fsck drives the admin RPCs directly: no client cache, no retry layer (a
  // repair that must not double-apply goes through the same server-side
  // dedup window as everything else, but failing loud beats retrying here),
  // and no notify plane (nothing holds leases, so nothing to invalidate).
  client_options->cache_enabled = false;
  client_options->resilience = false;
  client_options->notify = false;
  auto mount = core::Connect(*client_options);
  if (!mount.ok()) {
    std::fprintf(stderr, "loco_fsck: connect failed: %s\n",
                 mount.status().message().c_str());
    return 3;
  }

  core::FsckRunner::Config config;
  config.dms = mount->config.dms;
  config.fms = mount->config.fms;
  config.object_stores = mount->config.object_stores;
  core::FsckRunner runner(*mount->channel, config);

  auto report = runner.Run(options);
  if (!report.ok()) {
    std::fprintf(stderr, "loco_fsck: scan failed: %s (code %d)\n",
                 report.status().message().c_str(),
                 static_cast<int>(report.code()));
    return 3;
  }

  if (!quiet) {
    for (const core::FsckFinding& f : report->findings) {
      std::printf("%s\n", f.Describe().c_str());
    }
    std::printf("loco_fsck: %zu finding(s), %llu repair(s), %u pass(es)%s%s\n",
                report->findings.size(),
                static_cast<unsigned long long>(report->repairs),
                report->passes, repair ? "" : " [dry run]",
                live ? " [live]" : "");
    std::fflush(stdout);
  }
  return report->clean() ? 0 : 1;
}
