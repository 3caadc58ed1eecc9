// Key-value store interface.
//
// LocoFS (the paper) layers file-system metadata on Kyoto Cabinet and
// compares against LevelDB-backed IndexFS.  This module provides the three
// data-structure families those systems rely on:
//
//   * HashKV  — open-addressing hash table (Kyoto Cabinet "hash DB" mode):
//               O(1) point ops, unordered, full scan needed for ranges.
//   * BTreeKV — B+ tree (Kyoto Cabinet "tree DB" mode): ordered keys,
//               prefix/range scans; basis of the d-rename optimization §3.4.3.
//   * LsmKV   — LSM tree (LevelDB stand-in): memtable + WAL + sorted runs
//               with bloom filters; basis of the IndexFS baseline.
//
// All stores count operations, bytes moved, and storage-level I/O events so
// benchmarks can (a) observe (de)serialization volume and (b) convert I/O
// counts into device time under HDD/SSD cost models (Fig. 14).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"

namespace loco::kv {

// Monotonic operation / traffic counters.  Copyable snapshot type.
struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t patches = 0;       // in-place partial value updates
  std::uint64_t scans = 0;         // ordered or full scans
  std::uint64_t scan_items = 0;    // entries visited by scans
  std::uint64_t bytes_read = 0;    // value bytes returned to callers
  std::uint64_t bytes_written = 0; // value bytes accepted from callers
  std::uint64_t io_ops = 0;        // storage-level operations (WAL appends,
                                   // run flushes, compaction reads/writes)
  std::uint64_t io_bytes = 0;      // storage-level bytes

  KvStats operator-(const KvStats& rhs) const noexcept {
    KvStats d = *this;
    d.gets -= rhs.gets; d.puts -= rhs.puts; d.deletes -= rhs.deletes;
    d.patches -= rhs.patches; d.scans -= rhs.scans; d.scan_items -= rhs.scan_items;
    d.bytes_read -= rhs.bytes_read; d.bytes_written -= rhs.bytes_written;
    d.io_ops -= rhs.io_ops; d.io_bytes -= rhs.io_bytes;
    return d;
  }

  KvStats operator+(const KvStats& rhs) const noexcept {
    KvStats s = *this;
    s.gets += rhs.gets; s.puts += rhs.puts; s.deletes += rhs.deletes;
    s.patches += rhs.patches; s.scans += rhs.scans; s.scan_items += rhs.scan_items;
    s.bytes_read += rhs.bytes_read; s.bytes_written += rhs.bytes_written;
    s.io_ops += rhs.io_ops; s.io_bytes += rhs.io_bytes;
    return s;
  }
};

struct KvOptions {
  // Directory for persistence (WAL / sorted runs).  Empty = memory only.
  std::string dir;
  // fsync WAL appends (crash durability at a large cost; off for benches).
  bool sync_writes = false;
  // LSM: flush memtable when it holds this many bytes.
  std::size_t memtable_bytes = 4u << 20;
  // LSM: merge all runs when their count exceeds this.
  std::size_t max_runs = 6;
  // BTree: maximum keys per node.
  std::size_t btree_order = 32;
};

// A key-value entry returned by scans.
using Entry = std::pair<std::string, std::string>;

// Scan callback: sees one entry in place, valid only during the call.
// Return false to stop the scan.
using Visitor =
    std::function<bool(std::string_view key, std::string_view value)>;

class Kv {
 public:
  virtual ~Kv() = default;

  // Insert or overwrite.
  virtual Status Put(std::string_view key, std::string_view value) = 0;

  // Read into *value.  kNotFound if absent.
  virtual Status Get(std::string_view key, std::string* value) const = 0;

  // Remove.  kNotFound if absent.
  virtual Status Delete(std::string_view key) = 0;

  virtual bool Contains(std::string_view key) const {
    std::string tmp;
    return Get(key, &tmp).ok();
  }

  // Overwrite `patch.size()` bytes at `offset` inside the stored value.
  // This is the primitive LocoFS uses for fixed-offset field updates; stores
  // that keep values in place (hash, btree) implement it without re-writing
  // the rest of the value.  Fails with kNotFound / kInvalid (out of range).
  virtual Status PatchValue(std::string_view key, std::size_t offset,
                            std::string_view patch);

  // Read `len` bytes at `offset` of the stored value.
  virtual Status ReadValueAt(std::string_view key, std::size_t offset,
                             std::size_t len, std::string* out) const;

  // Number of live entries.
  virtual std::size_t Size() const = 0;

  // Ordered stores return all entries whose key starts with `prefix`
  // (lexicographic order); unordered stores fall back to a full scan.
  // `limit` == 0 means unlimited.
  virtual Status ScanPrefix(std::string_view prefix, std::size_t limit,
                            std::vector<Entry>* out) const = 0;

  // The entries ScanPrefix would return — same order, limit and counters —
  // handed to `fn` in place instead of copied out; `fn` returning false
  // stops the scan.  `fn` may run under the store's locks, so it must not
  // call back into the store.  This default copies through ScanPrefix;
  // stores that can walk their index in place override it.
  virtual Status VisitPrefix(std::string_view prefix, std::size_t limit,
                             const Visitor& fn) const;

  // Visit every entry (arbitrary order).  Return false from `fn` to stop.
  virtual void ForEach(
      const std::function<bool(std::string_view, std::string_view)>& fn) const = 0;

  // True if ScanPrefix is sub-linear (ordered index), false if it degrades
  // to a full scan (hash mode) — the distinction Fig. 14 measures.
  virtual bool Ordered() const noexcept = 0;

  // Snapshot of the operation counters.  Returned by value: striped stores
  // aggregate their shards under lock, so a reference would dangle or race.
  virtual KvStats stats() const noexcept { return stats_; }
  virtual void ResetStats() noexcept { stats_ = KvStats{}; }

 protected:
  mutable KvStats stats_;
};

enum class KvBackend { kHash, kBTree, kLsm };

std::string_view KvBackendName(KvBackend backend) noexcept;

// Create a store; opens/recovers persistent state if options.dir is set.
Result<std::unique_ptr<Kv>> MakeKv(KvBackend backend, const KvOptions& options = {});

// Register one callback gauge per KvStats field under `prefix` (e.g. prefix
// "server.dms.kv" yields server.dms.kv.gets, .puts, ...).  `fn` is evaluated
// at exposition time and may aggregate several stores.  The returned handles
// keep the gauges alive; dropping them unregisters.
std::vector<common::MetricsRegistry::GaugeHandle> RegisterKvStatsGauges(
    common::MetricsRegistry* registry, const std::string& prefix,
    std::function<KvStats()> fn);

}  // namespace loco::kv
