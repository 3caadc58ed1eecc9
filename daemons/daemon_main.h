// Shared scaffolding for the standalone metadata daemons (locofs_dmsd,
// locofs_fmsd, locofs_osd).  Each daemon builds one RpcHandler, then hands it
// to RunDaemon, which binds a net::TcpServer, prints the bound address on
// stdout (tests and scripts parse this line to learn an ephemeral port),
// and blocks until SIGINT/SIGTERM.  On shutdown the final metrics snapshot
// is optionally written to --metrics-out; it includes the retired
// rpc.tcp_server.* gauges, so the worker count the daemon ran with is
// recorded in the dump.
#pragma once

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "core/gc.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "net/fault.h"
#include "net/tcp.h"

namespace loco::daemons {

namespace internal {
inline volatile std::sig_atomic_t g_stop = 0;
inline void OnSignal(int) { g_stop = 1; }
}  // namespace internal

// Parse a --workers value into a dispatch-pool size (at least 1).  An empty
// string (flag not given) selects hardware_concurrency.
inline bool ParseWorkers(const char* name, const std::string& str, int* out) {
  if (str.empty()) {
    const unsigned hw = std::thread::hardware_concurrency();
    *out = hw != 0 ? static_cast<int>(hw) : 1;
    return true;
  }
  int workers = -1;
  if (!common::ParseInt(str, &workers) || workers < 1) {
    std::fprintf(stderr, "%s: bad --workers '%s' (want an integer >= 1)\n",
                 name, str.c_str());
    return false;
  }
  *out = workers;
  return true;
}

// Parse a --fault-spec value into a process fault injector.  An empty spec
// (flag not given) leaves *out null; a malformed spec is reported and
// rejected.
inline bool ParseFaultSpec(const char* name, const std::string& spec,
                           std::unique_ptr<net::FaultInjector>* out) {
  if (spec.empty()) return true;
  auto parsed = net::FaultSpec::Parse(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad --fault-spec '%s': %s\n", name, spec.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *out = std::make_unique<net::FaultInjector>(*parsed);
  return true;
}

// Server incarnation number: read `<store_dir>/epoch`, bump it, persist it.
// Hello replies carry the epoch, so clients can tell a daemon restart from a
// plain reconnect (NotifyListener resyncs on an epoch change).  With no
// --store-dir the wall clock stands in — still strictly increasing across
// restarts, just not dense.
inline std::uint64_t NextEpoch(const std::string& store_dir) {
  if (store_dir.empty()) return common::WallClockNs();
  ::mkdir(store_dir.c_str(), 0755);  // may already exist
  const std::string path = store_dir + "/epoch";
  std::uint64_t epoch = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[32] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      epoch = std::strtoull(buf, nullptr, 10);
    }
    std::fclose(f);
  }
  ++epoch;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(epoch));
    std::fclose(f);
  }
  return epoch;
}

// A channel to `endpoints` (node i = endpoints[i]) for a daemon's own calls
// to its peers: `deadline` per call, no retry layer.  A malformed endpoint
// is reported in *bad_spec and left unregistered.
inline std::unique_ptr<net::TcpChannel> PeerChannel(
    const std::vector<std::string>& endpoints, std::string* bad_spec,
    common::Nanos deadline = net::kDefaultCallDeadlineNs) {
  net::TcpChannelOptions channel_options;
  channel_options.call_deadline_ns = deadline;
  auto channel = std::make_unique<net::TcpChannel>(channel_options);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    std::string host;
    std::uint16_t port = 0;
    if (!net::ParseHostPort(endpoints[i], &host, &port)) {
      *bad_spec = endpoints[i];
      continue;
    }
    channel->Register(static_cast<net::NodeId>(i), host, port);
  }
  return channel;
}

// Housekeeping calls to peers (GC liveness probes, the rename intent
// resolver) are tagged background so a saturated peer sheds them before any
// foreground request; the caller just retries on a later step.
inline constexpr net::CallMeta kHousekeepingMeta{
    .priority = net::Priority::kBackground};

// Best-effort restart gossip: tell the DMS at `announce_spec` that server
// `node` came up with `epoch`.  The DMS broadcasts it down every notify
// stream so clients reset this node's circuit breaker immediately instead of
// waiting out the open window.  Failure is non-fatal (the breaker half-open
// probe remains the fallback).
inline void AnnounceToDms(const char* name, const std::string& announce_spec,
                          std::uint32_t node, std::uint64_t epoch) {
  std::string bad_spec;
  const auto channel =
      PeerChannel({announce_spec}, &bad_spec, 2 * common::kSecond);
  if (!bad_spec.empty()) {
    std::fprintf(stderr, "%s: bad --announce spec '%s' (want host:port)\n",
                 name, announce_spec.c_str());
    return;
  }
  const net::RpcResponse resp = net::CallBlocking(
      *channel, 0, core::proto::kDmsAnnounce, fs::Pack(node, epoch));
  if (resp.code != ErrCode::kOk) {
    std::fprintf(stderr, "%s: announce to %s failed (%d)\n", name,
                 announce_spec.c_str(), static_cast<int>(resp.code));
  }
}

// Parse the shared background-GC flags (--gc-ops, --gc-batch) into GcManager
// options.  Empty strings (flags not given) keep the defaults; malformed
// values are reported and rejected.
inline bool ParseGcFlags(const char* name, const std::string& ops_str,
                         const std::string& batch_str,
                         core::GcManager::Options* out) {
  if (!ops_str.empty()) {
    char* end = nullptr;
    const double ops = std::strtod(ops_str.c_str(), &end);
    if (end == ops_str.c_str() || *end != '\0' || !(ops > 0)) {
      std::fprintf(stderr, "%s: bad --gc-ops '%s' (want a rate > 0)\n", name,
                   ops_str.c_str());
      return false;
    }
    out->ops_per_sec = ops;
  }
  if (!batch_str.empty()) {
    unsigned batch = 0;
    if (!common::ParseInt(batch_str, &batch) || batch == 0) {
      std::fprintf(stderr, "%s: bad --gc-batch '%s' (want an integer > 0)\n",
                   name, batch_str.c_str());
      return false;
    }
    out->batch_ops = batch;
  }
  return true;
}

// Split a comma-separated endpoint list ("h1:p1,h2:p2").
inline std::vector<std::string> SplitEndpoints(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Blocking cross-server liveness probe for the GC detectors: asks every
// endpoint of `endpoint_list` ("h1:p1,h2:p2") whether each uuid is still
// referenced (kDmsCheckUuids / kFmsCheckUuids) and ORs the replies — a uuid
// is alive if ANY peer claims it.  Any transport or shape error fails the
// whole probe, which makes the calling detector skip its cycle
// ("unreachable" must never read as "dead").  The probe owns its channel.
// A malformed endpoint is reported against `flag` and yields no probe.
inline core::UuidProbe GcUuidProbe(const char* name, const char* flag,
                                   std::uint16_t opcode,
                                   const std::string& endpoint_list) {
  const std::vector<std::string> endpoints = SplitEndpoints(endpoint_list);
  std::string bad_spec;
  std::shared_ptr<net::TcpChannel> channel = PeerChannel(endpoints, &bad_spec);
  if (!bad_spec.empty()) {
    std::fprintf(stderr, "%s: bad %s spec '%s'\n", name, flag,
                 bad_spec.c_str());
    return nullptr;
  }
  return [channel, opcode, peers = endpoints.size()](
             const std::vector<fs::Uuid>& uuids)
             -> Result<std::vector<std::uint8_t>> {
    std::vector<std::string> entries;
    entries.reserve(uuids.size());
    for (const fs::Uuid u : uuids) entries.push_back(fs::Pack(u));
    const std::string request = fs::Pack(entries);
    std::vector<std::uint8_t> alive(uuids.size(), 0);
    for (std::size_t node = 0; node < peers; ++node) {
      const net::RpcResponse resp =
          net::CallBlocking(*channel, static_cast<net::NodeId>(node), opcode,
                            request, kHousekeepingMeta);
      if (resp.code != ErrCode::kOk) {
        return Status{resp.code, "uuid probe rpc failed"};
      }
      if (resp.payload.size() != uuids.size()) {
        return Status{ErrCode::kCorruption, "uuid probe bitmap size mismatch"};
      }
      for (std::size_t i = 0; i < uuids.size(); ++i) {
        if (resp.payload[i] != '\0') alive[i] = 1;
      }
    }
    return alive;
  };
}

// Serve `handler` on `listen_spec` ("host:port", port 0 = ephemeral) until
// SIGINT/SIGTERM, with caller-prepared server options (worker pool size,
// fault injector, dedup window).  `on_serving`, when set, runs once Start()
// has succeeded and before the address banner is printed (daemons hook the
// server into their service — SetNotifier — or announce themselves).  A
// non-null `gc` starts after it, paced by the server's admission-queue delay
// (docs/OVERLOAD.md), and stops before the server does: its load signal
// samples the server.  Returns the process exit code.
inline int RunDaemon(const char* name, net::RpcHandler* handler,
                     const std::string& listen_spec,
                     const std::string& metrics_out, int workers,
                     net::TcpServer::Options options,
                     const std::function<void(net::TcpServer&)>& on_serving,
                     core::GcManager* gc) {
  options.workers = workers;
  if (!listen_spec.empty() &&
      !net::ParseHostPort(listen_spec, &options.host, &options.port)) {
    std::fprintf(stderr, "%s: bad --listen spec '%s' (want host:port)\n", name,
                 listen_spec.c_str());
    return 2;
  }

  // Install handlers before announcing the address: a supervisor may signal
  // us the instant it has parsed the "listening" line.
  std::signal(SIGINT, internal::OnSignal);
  std::signal(SIGTERM, internal::OnSignal);

  net::TcpServer server(handler, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s: failed to listen on %s:%u\n", name,
                 options.host.c_str(), unsigned(options.port));
    return 1;
  }
  if (on_serving) on_serving(server);
  if (gc != nullptr) {
    gc->SetLoadSignal([&server] { return server.RecentQueueDelayNs(); });
    gc->Start();
  }
  // Harnesses locate the port via the LAST colon on this line, so nothing
  // after it may contain one.
  std::printf("%s: listening on %s:%u (%d workers)\n", name,
              server.host().c_str(), unsigned(server.port()),
              server.workers());
  std::fflush(stdout);
  while (!internal::g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (gc != nullptr) gc->Stop();
  server.Stop();

  if (!metrics_out.empty()) {
    if (std::FILE* f = std::fopen(metrics_out.c_str(), "w")) {
      const std::string json = common::MetricsRegistry::Default().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "%s: cannot write metrics to %s\n", name,
                   metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace loco::daemons
