// LocoClient ("LocoLib") — the LocoFS client library (§3.1).
//
// Routes directory operations to the single DMS, file-metadata operations to
// FMS servers chosen by consistent hashing over (parent uuid + name), and
// data to object-store servers chosen by file uuid.  Optionally keeps the
// client directory-metadata cache of §3.2.2: d-inode entries only, guarded
// by a lease (30 s by default); file inodes and dirents are never cached.
//
// Operation → RPC decomposition is documented in DESIGN.md §5.  Two known,
// deliberate relaxations versus the strict single-node contract (both
// inherent to the paper's design and documented in DESIGN.md):
//   * on a cache hit the parent's ACL and the subdirectory shadow check are
//     evaluated from leased state (the lease carries the parent's subdir
//     names) rather than re-validated at the DMS;
//   * a path that traverses *through a file* reports kNotFound rather than
//     kNotDir (no server holds both namespaces).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "core/layout.h"
#include "core/proto.h"
#include "core/ring.h"
#include "core/shard.h"
#include "fs/client.h"
#include "net/call.h"
#include "net/rpc.h"

namespace loco::core {

class LocoClient;

// Bridge between one net::NotifyListener and the LocoClient instances sharing
// its mount: the listener's reader thread calls Invalidate/Resync, which fan
// out to every registered client.  Clients register in their constructor and
// deregister in their destructor, so the fanout must be owned shared_ptr-style
// by both the mount and each client — a push arriving while a client is being
// destroyed either completes before ~LocoClient returns or never sees it.
class NotifyFanout {
 public:
  void Add(LocoClient* client);
  void Remove(LocoClient* client);

  // A leased directory changed on the server (wire::kNotifyInvalidate).
  void Invalidate(const std::string& path, bool subtree,
                  std::uint64_t wall_ts_ns);
  // Pushes may have been missed (gap / reconnect): drop all cached state.
  void Resync();

 private:
  std::mutex mu_;
  std::vector<LocoClient*> clients_;
};

class LocoClient final : public fs::FileSystemClient {
 public:
  struct Config {
    // Ordered DMS shard set (docs/SHARDING.md).  Placement is positional —
    // every client and tool must list the shards in the same order.  A
    // single entry reproduces the paper's one-DMS deployment exactly.
    std::vector<net::NodeId> dms = {0};
    std::vector<net::NodeId> fms;
    std::vector<net::NodeId> object_stores;
    bool cache_enabled = true;                  // LocoFS-C vs LocoFS-NC
    std::uint64_t lease_ns = proto::kLeaseNs;   // cache TTL (§3.2.2)
    fs::TimeFn now;                             // operation timestamps
    // Optional push plane (core::Connect wires this): the client registers
    // with the fanout so server pushes invalidate its lease cache between
    // operations instead of waiting out lease_ns.
    std::shared_ptr<NotifyFanout> fanout;
  };

  LocoClient(net::Channel& channel, Config config);
  ~LocoClient() override;

  // fs::FileSystemClient ------------------------------------------------
  net::Task<Status> Mkdir(std::string path, std::uint32_t mode) override;
  net::Task<Status> Rmdir(std::string path) override;
  net::Task<Result<std::vector<fs::DirEntry>>> Readdir(std::string path) override;
  net::Task<Status> Create(std::string path, std::uint32_t mode) override;
  net::Task<Status> Unlink(std::string path) override;
  net::Task<Status> Rename(std::string from, std::string to) override;
  net::Task<Result<fs::Attr>> Stat(std::string path) override;
  net::Task<Status> Chmod(std::string path, std::uint32_t mode) override;
  net::Task<Status> Chown(std::string path, std::uint32_t uid,
                          std::uint32_t gid) override;
  net::Task<Status> Access(std::string path, std::uint32_t want) override;
  net::Task<Status> Utimens(std::string path, std::uint64_t mtime,
                            std::uint64_t atime) override;
  net::Task<Status> Truncate(std::string path, std::uint64_t size) override;
  net::Task<Result<fs::Attr>> Open(std::string path) override;
  net::Task<Status> Close(std::string path) override;
  net::Task<Status> Write(std::string path, std::uint64_t offset,
                          std::string data) override;
  net::Task<Result<std::string>> Read(std::string path, std::uint64_t offset,
                                      std::uint64_t length) override;

  // Batched metadata ops (proto::kFmsBatchCreate / kFmsBatchStat /
  // kFmsReaddirPlus): names under ONE parent directory, grouped by FMS
  // placement so each server sees a single frame carrying all of its
  // sub-ops.  One LookupDir covers the parent for the whole batch.  Each
  // entry succeeds or fails alone (per-sub-op ErrCode); only transport-level
  // failures or a corrupt batch envelope fail the call as a whole.
  //
  // Per-entry stat result of StatMany.
  struct StatEntry {
    ErrCode code = ErrCode::kOk;
    fs::Attr attr;  // valid only when code == kOk
  };
  // Readdir entry with attributes: files carry their Attr (or the per-entry
  // error a concurrent remove produced); subdirectories carry the name only
  // (the DMS readdir reply has no per-subdir attrs).
  struct EntryPlus {
    std::string name;
    bool is_dir = false;
    ErrCode code = ErrCode::kOk;
    fs::Attr attr;  // files with code == kOk only
  };
  // Create every `names[i]` under `dir_path`; result[i] is that entry's
  // outcome, in `names` order.  The subdirectory shadow check runs against
  // the leased subdir set when the parent lease is live (same name list the
  // DMS would consult); with caching disabled it is skipped.
  net::Task<Result<std::vector<ErrCode>>> CreateMany(
      std::string dir_path, std::vector<std::string> names,
      std::uint32_t mode);
  // Stat every `names[i]` under `dir_path`; results in `names` order.
  net::Task<Result<std::vector<StatEntry>>> StatMany(
      std::string dir_path, std::vector<std::string> names);
  // Readdir returning file attributes in the same round trips: one DMS
  // readdir plus one kFmsReaddirPlus per FMS, instead of one GetAttr per
  // file.  Entries are sorted by name.
  net::Task<Result<std::vector<EntryPlus>>> ReaddirPlus(std::string path);

  // Bulk tree materialization (proto::kDmsBatchMkdir): all `paths[i]` in one
  // frame to the DMS, applied in order — so a batch may create "a" and then
  // "a/b".  result[i] is that path's outcome in `paths` order.
  net::Task<Result<std::vector<ErrCode>>> MkdirMany(
      std::vector<std::string> paths, std::uint32_t mode);

  // Bulk small-file write: the contents of existing files under ONE parent
  // directory, each replaced wholesale (truncating put at offset 0).  Two
  // batched phases replace the per-file SetSize + ObjWrite pair: one
  // kFmsBatchSetSize frame per FMS (grouped by ring placement; the replies
  // carry each file's uuid), then one kObjBatchPut frame per object store
  // (grouped by uuid placement).  result[i] is entry i's outcome.
  struct PutEntry {
    std::string name;
    std::string data;
  };
  net::Task<Result<std::vector<ErrCode>>> PutMany(std::string dir_path,
                                                  std::vector<PutEntry> entries);

  // Typed fast paths used by benchmarks (mdtest knows object types).
  net::Task<Result<fs::Attr>> StatDir(std::string path) override;
  net::Task<Result<fs::Attr>> StatFile(std::string path) override;
  net::Task<Status> ChmodFile(std::string path, std::uint32_t mode) override;
  net::Task<Status> ChownFile(std::string path, std::uint32_t uid,
                              std::uint32_t gid) override;
  net::Task<Status> AccessFile(std::string path, std::uint32_t want) override;

  // The d-inode cache holds leases whose ancestor ACL checks were performed
  // under the granting identity; an identity change invalidates them all.
  void SetIdentity(fs::Identity id) noexcept override {
    if (id.uid != identity_.uid || id.gid != identity_.gid) ClearCache();
    identity_ = id;
  }

  // Push-plane entry points, called from the notify listener's reader thread
  // via NotifyFanout (the only cross-thread access the client supports; the
  // coroutine API itself stays single-threaded).
  void OnInvalidate(const std::string& path, bool subtree,
                    std::uint64_t wall_ts_ns);
  void OnResync();

  // Cache observability.
  std::uint64_t cache_hits() const noexcept {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_hits_;
  }
  std::uint64_t cache_misses() const noexcept {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_misses_;
  }
  std::size_t cache_size() const noexcept {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
  }
  void DropCache() { ClearCache(); }

 private:
  struct CacheEntry {
    fs::Attr attr;
    std::uint64_t expires_at = 0;
    // Subdirectory names of this directory as of lease grant, maintained
    // locally across Mkdir/Rmdir/Rename so cache-hit parents still enforce
    // the file/subdirectory shadow check.
    std::unordered_set<std::string> subdirs;
  };

  std::uint64_t Now() const { return cfg_.now ? cfg_.now() : 0; }

  // Resolve a directory (usually a parent): serve from the lease cache when
  // possible, otherwise one DMS Lookup RPC.  `want` permission bits are
  // evaluated either locally (hit) or by the DMS (miss); `shadow_name`
  // triggers the subdirectory shadow check on the uncached path.
  net::Task<Result<fs::Attr>> LookupDir(std::string path, std::uint32_t want,
                                        std::string shadow_name);

  // The uuid a live lease holds for `path`, if any.  Not counted as a lease
  // hit: callers use it as a guess that a DMS reply then checks.
  std::optional<fs::Uuid> LeasedUuid(const std::string& path) const;

  // The two halves of a listing: the DMS readdir reply's subdirectories and
  // one `fms_opcode` reply per FMS, in cfg_.fms order.  On a live lease both
  // halves travel in one round (see ListDir).
  struct Listing {
    std::vector<fs::DirEntry> subdirs;
    std::vector<net::RpcResponse> files;
  };
  net::Task<Result<Listing>> ListDir(std::string path,
                                     std::uint16_t fms_opcode);

  // Distinguish kNotFound vs kIsDir/kNotDir after an FMS miss by consulting
  // the DMS (keeps client-visible error codes faithful to the contract).
  net::Task<Status> ClassifyMissingFile(std::string path);
  // The directory counterpart, after a directory op on `path` failed with
  // `failed`: a kNotFound for a non-root path becomes kNotDir when the FMS
  // holds a file there; any other failure passes through.
  net::Task<Status> ClassifyMissingDir(std::string path, Status failed);

  void InvalidatePrefix(const std::string& path);
  void InvalidatePrefixLocked(const std::string& path);
  void ClearCache() noexcept;
  // Erase `name` from / insert it into the cached subdir set of `parent`
  // (no-op when the parent holds no lease).
  void NoteSubdir(std::string_view parent, std::string_view name, bool present);

  // Cross-shard directory rename: the two-phase transfer protocol of
  // docs/SHARDING.md, driven against the source and destination shards.
  net::Task<Status> RenameAcrossShards(std::string from, std::string to,
                                       net::NodeId src_node,
                                       net::NodeId dst_node);

  net::NodeId FmsFor(fs::Uuid dir_uuid, std::string_view name) const {
    return ring_.Locate(FileKey(dir_uuid, name));
  }
  net::NodeId ObjFor(fs::Uuid uuid) const {
    return cfg_.object_stores[uuid.raw() % cfg_.object_stores.size()];
  }
  // Owning DMS shard for a directory path (mirrors FmsFor): subtree
  // placement over the top-level path component, root pinned to shard 0.
  net::NodeId DmsFor(std::string_view path) const {
    return cfg_.dms[shards_.ShardOf(path)];
  }

  net::Channel& channel_;
  Config cfg_;
  HashRing ring_;
  ShardMap shards_;
  // Guards cache_, cache_hits_, cache_misses_: the notify listener's reader
  // thread invalidates entries concurrently with the (otherwise
  // single-threaded) operation path.  Never held across a co_await.
  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // Process-wide counterparts of the per-instance counters above.
  common::Counter* metric_hits_ = &common::MetricsRegistry::Default()
                                       .GetCounter("client.cache.hits");
  common::Counter* metric_misses_ = &common::MetricsRegistry::Default()
                                         .GetCounter("client.cache.misses");
  common::Counter* metric_invalidations_ =
      &common::MetricsRegistry::Default().GetCounter(
          "client.cache.invalidations");
  // Server-push wall_ts → local receipt delta: the end-to-end invalidation
  // latency the push plane exists to shrink (docs/LEASES.md).
  common::MetricsRegistry::LatencyHistogram* metric_invalidation_latency_ =
      &common::MetricsRegistry::Default().GetHistogram(
          "client.notify.invalidation_latency");
};

}  // namespace loco::core
