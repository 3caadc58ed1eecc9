// BTreeKV: in-memory B+ tree with optional WAL persistence.
//
// Stand-in for Kyoto Cabinet's tree-DB mode.  Keys are kept in lexicographic
// order with linked leaves, so ScanPrefix / ScanRange cost O(log n + k); this
// ordered layout is what makes LocoFS's directory-rename optimization
// (§3.4.3) a contiguous range move instead of a full scan.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kvstore/kv.h"
#include "kvstore/wal.h"

namespace loco::kv {

class BTreeKV final : public Kv {
 public:
  explicit BTreeKV(const KvOptions& options = {});
  ~BTreeKV() override;

  // Recover from WAL (if options.dir set) and open it for appending.
  Status Open();

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  bool Contains(std::string_view key) const override;
  Status PatchValue(std::string_view key, std::size_t offset,
                    std::string_view patch) override;
  Status ReadValueAt(std::string_view key, std::size_t offset, std::size_t len,
                     std::string* out) const override;
  std::size_t Size() const override { return size_; }
  Status ScanPrefix(std::string_view prefix, std::size_t limit,
                    std::vector<Entry>* out) const override;
  Status VisitPrefix(std::string_view prefix, std::size_t limit,
                     const Visitor& fn) const override;
  void ForEach(const std::function<bool(std::string_view, std::string_view)>& fn)
      const override;
  bool Ordered() const noexcept override { return true; }

  // Entries with lo <= key < hi, in order.  Empty hi = unbounded.
  Status ScanRange(std::string_view lo, std::string_view hi, std::size_t limit,
                   std::vector<Entry>* out) const;

  // Height of the tree (1 = a single leaf); exposed for tests.
  std::size_t Height() const noexcept;

  // Validate every B+-tree invariant (ordering, fanout, uniform leaf depth,
  // leaf-chain consistency).  Test hook; returns false on any violation.
  bool CheckInvariants() const;

  // Node types are implementation details; they are declared here (and
  // defined in the .cc) so file-local helper code can name them.
  struct Node;
  struct Leaf;
  struct Inner;

 private:
  Leaf* FindLeaf(std::string_view key) const noexcept;
  // Returns true if the tree grew via a root split.
  void InsertNoLog(std::string_view key, std::string_view value);
  bool EraseNoLog(std::string_view key);
  std::string* FindValue(std::string_view key) const noexcept;
  // The leaf walk behind ScanRange, ScanPrefix and VisitPrefix: hands
  // entries with lo <= key < hi (empty hi = unbounded) to `fn` in order.
  Status VisitRange(std::string_view lo, std::string_view hi,
                    std::size_t limit, const Visitor& fn) const;

  // Append one encoded record to the open WAL.  Callers check
  // wal_.IsOpen() first, so a memory-only tree never encodes a record.
  Status LogAppend(std::string_view record);

  KvOptions options_;
  std::size_t max_keys_;  // order: max keys per node
  std::size_t min_keys_;  // floor(order / 2)
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  Wal wal_;
};

}  // namespace loco::kv
