#include "core/object_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <vector>

#include "common/codec.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "kvstore/striped_kv.h"
#include "net/wire.h"

namespace loco::core {

namespace {
using net::BadRequest;
using net::Fail;

const kv::KvOptions& EnsureStoreDir(const kv::KvOptions& kv) {
  if (!kv.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(kv.dir, ec);
  }
  return kv;
}
}  // namespace

ObjectStoreServer::ObjectStoreServer(const Options& options)
    : options_(options),
      blocks_(std::move(kv::MakeStripedKv(kv::KvBackend::kHash,
                                          EnsureStoreDir(options.kv)))
                  .value()) {}

std::string ObjectStoreServer::BlockKey(std::uint64_t uuid, std::uint64_t block) {
  std::string key(16, '\0');
  common::StoreAt<std::uint64_t>(&key, 0, uuid);
  common::StoreAt<std::uint64_t>(&key, 8, block);
  return key;
}

net::RpcResponse ObjectStoreServer::Handle(std::uint16_t opcode,
                                           std::string_view payload) {
  const common::ServerOpCounters::PerOp& m = op_metrics_.For(opcode);
  m.calls->Add();
  net::RpcResponse resp = Dispatch(opcode, payload);
  if (resp.code != ErrCode::kOk) m.errors->Add();
  return resp;
}

net::RpcResponse ObjectStoreServer::Dispatch(std::uint16_t opcode,
                                             std::string_view payload) {
  if (opcode == proto::kCtlSnapshotBegin) {
    std::unique_lock scan(scan_mu_);
    return snapshots_.Begin({ScanObjectsPayload()});
  }
  std::shared_lock scan(scan_mu_);
  switch (opcode) {
    case proto::kObjWrite: return Write(payload);
    case proto::kObjBatchPut:
      // Bulk small-object write: each sub-op runs the single-op Write (same
      // per-object lock, same RMW rules), and the reply's extra_service_ns
      // sums their device costs, so the simulator charges the batch what N
      // writes cost in storage time (the saved RPC overhead is the point).
      return net::wire::ServeBatch(
          payload, [this](std::string_view sub) { return Write(sub); });
    case proto::kObjRead: return Read(payload);
    case proto::kObjTruncate: return Truncate(payload);
    case proto::kObjScanObjects:
      return snapshots_.Scan(payload, 0,
                             [this] { return ScanObjectsPayload(); });
    case proto::kObjPurge: return Purge(payload);
    case proto::kCtlSnapshotEnd: return snapshots_.End(payload);
    case proto::kCtlGcStatus: return GcManager::StatusReply(gc_);
    default: return Fail(ErrCode::kUnsupported);
  }
}

net::RpcResponse ObjectStoreServer::Write(std::string_view payload) {
  fs::Uuid uuid;
  std::uint64_t offset = 0;
  std::string data;
  if (!fs::Unpack(payload, uuid, offset, data)) return BadRequest();
  const std::uint64_t bs = options_.block_bytes;

  if (!options_.retain_data) {
    const std::uint64_t first = offset / bs;
    const std::uint64_t last = data.empty() ? first : (offset + data.size() - 1) / bs;
    net::RpcResponse resp;
    resp.extra_service_ns = options_.device.Cost(last - first + 1, data.size());
    return resp;
  }

  // Serialize against concurrent writers/truncators of the same object; the
  // per-block Put alone would make the partial-block read-modify-write lose
  // updates under overlap.
  const common::LockTable::Guard guard = object_locks_.Lock(uuid.raw());
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  std::uint64_t touched_blocks = 0;
  while (consumed < data.size()) {
    const std::uint64_t block = pos / bs;
    const std::size_t in_block = static_cast<std::size_t>(pos % bs);
    const std::size_t n =
        std::min<std::size_t>(data.size() - consumed, static_cast<std::size_t>(bs) - in_block);
    const std::string key = BlockKey(uuid.raw(), block);
    if (in_block == 0 && n == bs) {
      (void)blocks_->Put(key, data.substr(consumed, n));  // full-block write
    } else {
      // Partial block: read-modify-write.
      std::string blk;
      (void)blocks_->Get(key, &blk);
      if (blk.size() < in_block + n) blk.resize(in_block + n, '\0');
      blk.replace(in_block, n, data, consumed, n);
      (void)blocks_->Put(key, blk);
    }
    pos += n;
    consumed += n;
    ++touched_blocks;
  }

  net::RpcResponse resp;
  resp.extra_service_ns = options_.device.Cost(std::max<std::uint64_t>(touched_blocks, 1),
                                               data.size());
  return resp;
}

net::RpcResponse ObjectStoreServer::Read(std::string_view payload) {
  fs::Uuid uuid;
  std::uint64_t offset = 0, length = 0, size_hint = 0;
  if (!fs::Unpack(payload, uuid, offset, length, size_hint)) return BadRequest();
  const std::uint64_t bs = options_.block_bytes;

  std::string out(static_cast<std::size_t>(length), '\0');
  if (!options_.retain_data) {
    const std::uint64_t first = offset / bs;
    const std::uint64_t last = length == 0 ? first : (offset + length - 1) / bs;
    net::RpcResponse resp;
    resp.payload = fs::Pack(out);
    resp.extra_service_ns = options_.device.Cost(last - first + 1, out.size());
    return resp;
  }
  std::uint64_t pos = offset;
  std::size_t produced = 0;
  std::uint64_t touched_blocks = 0;
  while (produced < out.size()) {
    const std::uint64_t block = pos / bs;
    const std::size_t in_block = static_cast<std::size_t>(pos % bs);
    const std::size_t n =
        std::min<std::size_t>(out.size() - produced, static_cast<std::size_t>(bs) - in_block);
    std::string blk;
    if (blocks_->Get(BlockKey(uuid.raw(), block), &blk).ok() &&
        blk.size() > in_block) {
      const std::size_t have = std::min(n, blk.size() - in_block);
      out.replace(produced, have, blk, in_block, have);
    }
    pos += n;
    produced += n;
    ++touched_blocks;
  }

  net::RpcResponse resp;
  resp.payload = fs::Pack(out);
  resp.extra_service_ns = options_.device.Cost(std::max<std::uint64_t>(touched_blocks, 1),
                                               out.size());
  return resp;
}

net::RpcResponse ObjectStoreServer::Truncate(std::string_view payload) {
  fs::Uuid uuid;
  std::uint64_t size = 0;
  if (!fs::Unpack(payload, uuid, size)) return BadRequest();
  const std::uint64_t bs = options_.block_bytes;
  const std::uint64_t keep_blocks = (size + bs - 1) / bs;

  const common::LockTable::Guard guard = object_locks_.Lock(uuid.raw());
  // Trim the partial tail block, then drop everything beyond it.  The block
  // table is scanned (object stores track per-object block sets; a hash scan
  // stands in for that index).
  std::vector<std::string> doomed;
  blocks_->ForEach([&](std::string_view key, std::string_view) {
    if (key.size() == 16 && common::LoadAt<std::uint64_t>(key, 0) == uuid.raw()) {
      if (common::LoadAt<std::uint64_t>(key, 8) >= keep_blocks) {
        doomed.emplace_back(key);
      }
    }
    return true;
  });
  for (const std::string& key : doomed) (void)blocks_->Delete(key);

  if (size % bs != 0 && keep_blocks > 0) {
    const std::string key = BlockKey(uuid.raw(), keep_blocks - 1);
    std::string blk;
    if (blocks_->Get(key, &blk).ok() &&
        blk.size() > static_cast<std::size_t>(size % bs)) {
      blk.resize(static_cast<std::size_t>(size % bs));
      (void)blocks_->Put(key, blk);
    }
  }

  net::RpcResponse resp;
  resp.extra_service_ns =
      options_.device.Cost(doomed.size() + 1, 0);
  return resp;
}

std::string ObjectStoreServer::ScanObjectsPayload() {
  // fsck inventory: every object uuid present plus its block count.
  std::map<std::uint64_t, std::uint64_t> counts;
  blocks_->ForEach([&](std::string_view key, std::string_view) {
    if (key.size() == 16) ++counts[common::LoadAt<std::uint64_t>(key, 0)];
    return true;
  });
  std::vector<std::string> entries;
  entries.reserve(counts.size());
  for (const auto& [uuid, blocks] : counts) {
    entries.push_back(fs::Pack(uuid, blocks));
  }
  return fs::Pack(entries);
}

net::RpcResponse ObjectStoreServer::Purge(std::string_view payload) {
  fs::Uuid uuid;
  if (!fs::Unpack(payload, uuid)) return BadRequest();
  const common::LockTable::Guard guard = object_locks_.Lock(uuid.raw());
  std::vector<std::string> doomed;
  blocks_->ForEach([&](std::string_view key, std::string_view) {
    if (key.size() == 16 &&
        common::LoadAt<std::uint64_t>(key, 0) == uuid.raw()) {
      doomed.emplace_back(key);
    }
    return true;
  });
  for (const std::string& key : doomed) (void)blocks_->Delete(key);
  net::RpcResponse resp;
  resp.payload = fs::Pack(static_cast<std::uint64_t>(doomed.size()));
  resp.extra_service_ns = options_.device.Cost(doomed.size() + 1, 0);
  return resp;
}

// --------------------------------------------------------- housekeeping --

GcStepResult ObjectStoreServer::GcStep(std::uint32_t budget,
                                       const UuidProbe& file_alive) {
  if (!gc_steps_) {
    gc_steps_ = std::make_unique<GcStepper>(ServerRole::kObj, "gc.obj");
  }
  return gc_steps_->Step(
      budget, *this,
      [this](ScanView* view) {
        std::string objects;
        {
          std::shared_lock scan(scan_mu_);
          objects = ScanObjectsPayload();
        }
        return DecodeObjectScan(objects, view);
      },
      file_alive);
}

}  // namespace loco::core
