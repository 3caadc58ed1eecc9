// Directory Metadata Server daemon.
//
//   locofs_dmsd [--listen host:port] [--backend btree|hash] [--workers N]
//               [--store-dir dir] [--fault-spec spec]
//               [--shard-id N] [--peers h1:p1,h2:p2,...]
//               [--metrics-out file.json]
//
// --workers sizes the request dispatch pool (at least 1; default: hardware
// concurrency).  The event loop still serves a lone cheap request itself
// when a worker is idle and the opcode's last run took at most 50 µs,
// saving the hand-off (docs/NET.md "Loop runs").
// --store-dir persists both KV stores (WAL per stripe) so a restarted daemon
// recovers its namespace; --fault-spec arms the deterministic fault plane
// (grammar in net/fault.h).  Idempotent mutations are always served through
// a dedup window, so a client retry of an applied Mkdir/Rename replays the
// cached response instead of double-applying.
//
// Sharded deployments (docs/SHARDING.md) run one daemon per shard:
// --shard-id is this daemon's index in the ordered shard set (it seeds the
// uuid sid as 0xfffe - id so fids minted on different shards never collide),
// and --peers lists every shard's endpoint in shard order — the same order
// as the client's repeated dms= spec entries.  --peers arms the rename
// intent-resolution GC task: abandoned cross-shard rename transfers (client
// crashed mid-2PC) are aged out and driven to completion with the same
// commit-point rule the client and fsck use.  --gc-intent-age-ms sets how
// long an intent must sit unresolved before the daemon intervenes.
//
// --gc starts the background housekeeping thread (docs/HOUSEKEEPING.md):
// incremental detection/repair of the namespace invariants I1-I4, needing
// no peers (everything it checks lives in this server's two stores), plus —
// when --peers is given — the cross-shard intent resolver above.
// --gc-ops caps the scan rate, --gc-batch sizes one step.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dms.h"
#include "core/invariants.h"
#include "core/proto.h"
#include "core/shard.h"
#include "daemon_main.h"
#include "kvstore/faulty_kv.h"
#include "net/dedup.h"

namespace {

using namespace loco;

// Resolves aged cross-shard rename intents left behind by crashed clients
// (docs/SHARDING.md).  Registered as a GC task next to dms-housekeeping.
// Each step sweeps the local intent log; records older than `age_ns` go
// through the I10 resolution fsck uses (core::ResolveRenameIntent):
//
//   outgoing intent (kind 0, this shard is the source): the destination
//     shard's answer for `to` (kDmsStat) and the local root of `from` decide
//     the direction (core::RollsForward).  An unreachable destination
//     defers to the next sweep.
//
//   incoming marker (kind 1, this shard is the destination): purely local —
//     the fence (AbortIncoming with purge) keeps a subtree whose root landed
//     and purges a partial install.  The source shard's own resolver then
//     observes the outcome through its probe and finishes or aborts its
//     side independently.
class RenameIntentResolver {
 public:
  RenameIntentResolver(core::DirectoryMetadataServer* server,
                       const std::vector<std::string>& peers,
                       std::uint32_t self, std::uint64_t age_ns)
      : server_(server),
        shards_(peers.size()),
        self_(self),
        age_ns_(age_ns),
        channel_(daemons::PeerChannel(peers, &bad_spec_)) {}

  const std::string& bad_spec() const noexcept { return bad_spec_; }

  core::GcStepResult Step(std::uint32_t budget) {
    core::GcStepResult result;
    const std::uint64_t now = common::WallClockNs();
    const auto pending = server_->PendingRenames();

    // Age tracking: an intent only becomes actionable once it has sat
    // unresolved for age_ns_ (a live client finishes its 2PC in
    // milliseconds; anything older is abandoned).  Entries that resolved
    // are forgotten.
    std::map<std::pair<std::uint8_t, std::uint64_t>, std::uint64_t> seen;
    for (const auto& p : pending) {
      if (p.kind > 1) continue;  // tombstones are permanent fences, not work
      const auto key = std::make_pair(p.kind, p.txid);
      const auto it = first_seen_.find(key);
      const std::uint64_t first = it != first_seen_.end() ? it->second : now;
      if (result.ops < budget && now - first >= age_ns_) {
        ++result.ops;
        if (Resolve(p)) {
          ++result.reclaimed;
          continue;
        }
      }
      seen[key] = first;
    }
    first_seen_ = std::move(seen);
    return result;
  }

 private:
  // Shard `shard`: this server in process, a peer over the channel.
  net::RpcResponse Call(std::size_t shard, std::uint16_t opcode,
                        std::string payload) {
    if (shard == self_) return server_->Handle(opcode, payload);
    return net::CallBlocking(*channel_, static_cast<net::NodeId>(shard),
                             opcode, std::move(payload),
                             daemons::kHousekeepingMeta);
  }

  // The uuid of the directory at `path` on `shard`, or nullopt when there is
  // none; false when the shard gave no usable answer.  Probes run as root:
  // recovery must see the namespace, not be filtered by the dead client's
  // permissions.
  bool DirUuid(std::size_t shard, const std::string& path,
               std::optional<fs::Uuid>* out) {
    const net::RpcResponse r =
        Call(shard, core::proto::kDmsStat, fs::Pack(path, fs::Identity{0, 0}));
    if (!r.ok()) return r.code == ErrCode::kNotFound;
    fs::Attr attr;
    if (!fs::Unpack(r.payload, attr)) return false;
    *out = attr.uuid;
    return true;
  }

  bool Resolve(const core::DirectoryMetadataServer::PendingRename& p) {
    core::FsckFinding f;
    f.type = core::FsckFindingType::kRenameIntent;
    f.txid = p.txid;
    f.has_marker = true;
    if (p.kind == 1) {
      f.dst_shard = self_;  // roll_forward stays false: fence locally
    } else {
      f.has_intent = true;
      f.src_shard = self_;
      f.dst_shard = shards_.ShardOf(p.to);
      if (f.dst_shard == self_) return false;
      std::optional<fs::Uuid> dst_root, src_root;
      if (!DirUuid(f.dst_shard, p.to, &dst_root)) return false;
      if (dst_root && !DirUuid(self_, p.from, &src_root)) return false;
      f.roll_forward = core::RollsForward(dst_root ? &*dst_root : nullptr,
                                          src_root ? &*src_root : nullptr);
    }
    return core::ResolveRenameIntent(
               f,
               [this](std::size_t shard, std::uint16_t opcode,
                      std::string payload) {
                 return Call(shard, opcode, std::move(payload));
               })
        .ok();
  }

  core::DirectoryMetadataServer* server_;
  core::ShardMap shards_;
  std::uint32_t self_;
  std::uint64_t age_ns_;
  std::string bad_spec_;
  std::unique_ptr<net::TcpChannel> channel_;
  std::map<std::pair<std::uint8_t, std::uint64_t>, std::uint64_t> first_seen_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace loco;

  std::string listen = "127.0.0.1:0";
  std::string backend = "btree";
  std::string metrics_out;
  std::string workers_str;
  std::string store_dir;
  std::string fault_spec;
  std::string gc_ops_str;
  std::string gc_batch_str;
  std::string shard_id_str;
  std::string peers_str;
  std::string intent_age_str;
  bool gc_enabled = false;
  for (int i = 1; i < argc; ++i) {
    if (common::FlagValue(argc, argv, &i, "--listen", &listen)) continue;
    if (common::FlagValue(argc, argv, &i, "--backend", &backend)) continue;
    if (common::FlagValue(argc, argv, &i, "--metrics-out", &metrics_out)) continue;
    if (common::FlagValue(argc, argv, &i, "--workers", &workers_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--store-dir", &store_dir)) continue;
    if (common::FlagValue(argc, argv, &i, "--fault-spec", &fault_spec)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-ops", &gc_ops_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-batch", &gc_batch_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--shard-id", &shard_id_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--peers", &peers_str)) continue;
    if (common::FlagValue(argc, argv, &i, "--gc-intent-age-ms", &intent_age_str)) continue;
    if (std::strcmp(argv[i], "--gc") == 0) {
      gc_enabled = true;
      continue;
    }
    std::fprintf(stderr,
                 "locofs_dmsd: unknown argument '%s'\n"
                 "usage: locofs_dmsd [--listen host:port] [--backend btree|hash]"
                 " [--workers N] [--store-dir dir] [--fault-spec spec]"
                 " [--shard-id N] [--peers h1:p1,h2:p2,...]"
                 " [--gc] [--gc-ops RATE] [--gc-batch N] [--gc-intent-age-ms MS]"
                 " [--metrics-out file.json]\n",
                 argv[i]);
    return 2;
  }

  int workers = 0;
  if (!daemons::ParseWorkers("locofs_dmsd", workers_str, &workers)) return 2;
  std::unique_ptr<net::FaultInjector> fault;
  if (!daemons::ParseFaultSpec("locofs_dmsd", fault_spec, &fault)) return 2;

  std::uint32_t shard_id = 0;
  if (!shard_id_str.empty()) {
    if (!common::ParseInt(shard_id_str, &shard_id) || shard_id >= 0xfffe) {
      std::fprintf(stderr, "locofs_dmsd: bad --shard-id '%s'\n",
                   shard_id_str.c_str());
      return 2;
    }
  }
  const std::vector<std::string> peers = daemons::SplitEndpoints(peers_str);
  if (!peers_str.empty() && shard_id >= peers.size()) {
    std::fprintf(stderr,
                 "locofs_dmsd: --shard-id %u out of range for %zu --peers\n",
                 shard_id, peers.size());
    return 2;
  }
  std::uint64_t intent_age_ns = 10'000 * common::kMilli;  // 10 s default
  if (!intent_age_str.empty()) {
    std::uint64_t ms = 0;
    if (!common::ParseInt(intent_age_str, &ms) || ms == 0) {
      std::fprintf(stderr, "locofs_dmsd: bad --gc-intent-age-ms '%s'\n",
                   intent_age_str.c_str());
      return 2;
    }
    intent_age_ns = ms * common::kMilli;
  }

  core::DirectoryMetadataServer::Options options;
  if (backend == "btree") {
    options.backend = kv::KvBackend::kBTree;
  } else if (backend == "hash") {
    options.backend = kv::KvBackend::kHash;
  } else {
    std::fprintf(stderr, "locofs_dmsd: bad --backend '%s' (btree|hash)\n",
                 backend.c_str());
    return 2;
  }
  options.kv.dir = store_dir;
  // Shard i mints uuids under sid 0xfffe - i, so fids allocated on different
  // shards never collide (shard 0 keeps the historic 0xfffe).
  options.sid = 0xfffe - shard_id;
  if (fault) {
    options.kv_decorator = [&fault](std::unique_ptr<kv::Kv> inner) {
      return std::make_unique<kv::FaultyKv>(std::move(inner), fault.get());
    };
  }

  core::GcManager::Options gc_options;
  if (!daemons::ParseGcFlags("locofs_dmsd", gc_ops_str, gc_batch_str,
                             &gc_options)) {
    return 2;
  }

  core::DirectoryMetadataServer server(options);
  // Declared after the server (and the resolver it captures) so the GC
  // thread stops (dtor) first.
  std::unique_ptr<RenameIntentResolver> resolver;
  core::GcManager gc(gc_options);
  if (gc_enabled) {
    server.SetGcManager(&gc);
    gc.AddTask("dms-housekeeping", [&server](std::uint32_t budget) {
      return server.GcStep(budget);
    });
    if (!peers.empty()) {
      resolver = std::make_unique<RenameIntentResolver>(&server, peers,
                                                        shard_id,
                                                        intent_age_ns);
      if (!resolver->bad_spec().empty()) {
        std::fprintf(stderr, "locofs_dmsd: bad --peers endpoint '%s'\n",
                     resolver->bad_spec().c_str());
        return 2;
      }
      gc.AddTask("dms-intent-resolution",
                 [r = resolver.get()](std::uint32_t budget) {
                   return r->Step(budget);
                 });
    }
  }

  net::DedupWindow dedup(core::proto::IdempotentReplayOps());
  net::TcpServer::Options server_options;
  server_options.fault = fault.get();
  server_options.dedup = &dedup;
  server_options.epoch = daemons::NextEpoch(store_dir);
  // A notify stream dropping means the client is gone (crashed or exited):
  // free its leases immediately instead of waiting out their TTL.
  server_options.on_notify_disconnect = [&server](std::uint64_t client) {
    server.DropClientLeases(client);
  };
  // Hand the TCP server to the DMS as its push channel: lease invalidations
  // and restart gossip ride the connected clients' notify streams.
  return daemons::RunDaemon(
      "locofs_dmsd", &server, listen, metrics_out, workers, server_options,
      [&](net::TcpServer& tcp) { server.SetNotifier(&tcp); },
      gc_enabled ? &gc : nullptr);
}
