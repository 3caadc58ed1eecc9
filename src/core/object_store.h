// Object store: file data as fixed-size blocks addressed by (uuid, block)
// (§3.3.2 — data indexing via arithmetic on uuid + block number, no index
// metadata in the inode).
//
// Device I/O is modeled: handlers report the storage time of each request
// through RpcResponse::extra_service_ns so the simulator charges it on the
// virtual clock (the host has no spinning disks to measure).  Over TCP the
// field is ignored and a request costs what the host's store costs.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "common/clock.h"
#include "common/lock_table.h"
#include "common/metrics.h"
#include "core/gc.h"
#include "core/invariants.h"
#include "kvstore/kv.h"
#include "net/rpc.h"

namespace loco::core {

// Storage device profile used to charge virtual time for block I/O.
struct DeviceProfile {
  common::Nanos per_io_ns = 60'000;  // command/seek overhead per request
  double bytes_per_sec = 450e6;      // sequential throughput

  common::Nanos Cost(std::uint64_t io_ops, std::uint64_t io_bytes) const noexcept {
    const double transfer_s =
        bytes_per_sec > 0 ? static_cast<double>(io_bytes) / bytes_per_sec : 0;
    return static_cast<common::Nanos>(io_ops) * per_io_ns +
           static_cast<common::Nanos>(transfer_s * 1e9);
  }
};

// Thread-safe: the block table is a striped KV and multi-block mutations
// (partial-block read-modify-write, truncate) take a per-object lock, so the
// OSD runs bare behind a multi-worker TcpServer.  Reads are lock-free — a
// read racing a write may see a mix of old and new blocks, which is the same
// guarantee a POSIX client gets for concurrent unlocked I/O.
class ObjectStoreServer final : public net::RpcHandler {
 public:
  struct Options {
    std::size_t block_bytes = 64 * 1024;
    DeviceProfile device;
    // When false, block payloads are accounted (device + network time) but
    // not stored, and reads return zero-filled buffers.  Benchmarks that
    // push many GiB through the store use this to keep host memory flat;
    // correctness tests keep it true.
    bool retain_data = true;
    // Block-table persistence (kv.dir = on-disk striped store recovered on
    // restart; empty = memory only, as before).
    kv::KvOptions kv;
  };

  ObjectStoreServer() : ObjectStoreServer(Options{}) {}
  explicit ObjectStoreServer(const Options& options);

  net::RpcResponse Handle(std::uint16_t opcode, std::string_view payload) override;

  std::size_t BlockCount() const { return blocks_->Size(); }
  std::size_t block_bytes() const noexcept { return options_.block_bytes; }

  // Wire the hosting daemon's GC manager so kCtlGcStatus can answer.  The
  // manager must outlive the server.
  void SetGcManager(GcManager* gc) noexcept { gc_ = gc; }

  // One incremental GC step (docs/HOUSEKEEPING.md, core/gc.h GcStepper):
  // apply queued purges, else scan the block table and detect invariant I9
  // (objects whose uuid no file inode references).  `file_alive` probes
  // every FMS (kFmsCheckUuids, '\1' when some inode carries the uuid);
  // purges are destructive, so a candidate must be seen dead in two
  // consecutive harvests, and a probe error skips the detector for the
  // cycle.
  GcStepResult GcStep(std::uint32_t budget, const UuidProbe& file_alive);

 private:
  net::RpcResponse Dispatch(std::uint16_t opcode, std::string_view payload);

  net::RpcResponse Write(std::string_view payload);
  net::RpcResponse Read(std::string_view payload);
  net::RpcResponse Truncate(std::string_view payload);
  net::RpcResponse Purge(std::string_view payload);

  // The kObjScanObjects payload (live scans, SnapshotBegin, the GC step).
  std::string ScanObjectsPayload();

  static std::string BlockKey(std::uint64_t uuid, std::uint64_t block);

  Options options_;
  std::unique_ptr<kv::Kv> blocks_;
  common::LockTable object_locks_;  // keyed by uuid: serializes RMW/truncate

  // Snapshot plane (kCtlSnapshotBegin/End): pinning takes scan_mu_
  // exclusively; every other handler and the GC harvest hold it shared.
  mutable std::shared_mutex scan_mu_;
  SnapshotRing snapshots_;

  // Housekeeping: the GC step engine (created by the first GcStep) and the
  // hosting daemon's manager (kCtlGcStatus).
  std::unique_ptr<GcStepper> gc_steps_;
  GcManager* gc_ = nullptr;
  // Object stores are fungible replicas: all instances share one
  // "server.obj" metric family (per-instance split adds nothing here).
  common::ServerOpCounters op_metrics_{&common::MetricsRegistry::Default(),
                                       "server.obj"};
};

}  // namespace loco::core
