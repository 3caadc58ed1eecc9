// HashKV: robin-hood open-addressing hash table with optional WAL
// persistence.  Stand-in for Kyoto Cabinet's hash-DB mode: O(1) point ops,
// no key order, so prefix scans degrade to a full table walk — exactly the
// behaviour Fig. 14 contrasts with the B+-tree mode.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/kv.h"
#include "kvstore/wal.h"

namespace loco::kv {

class HashKV final : public Kv {
 public:
  explicit HashKV(const KvOptions& options = {});
  ~HashKV() override = default;

  // Recover from an existing WAL (if options.dir was set) and open it for
  // appending.  Must be called once before use when persistence is enabled.
  Status Open();

  // Keys and values longer than 4 GiB - 1 are refused with kInvalid.
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
  bool Ordered() const noexcept override { return false; }

  // Current bucket-array capacity (exposed for tests).
  std::size_t Capacity() const noexcept { return slots_.size(); }

 private:
  // One entry, in one heap block: the key bytes, then the value bytes.  A
  // slot is 24 bytes, and a rehash moves blocks instead of copying entries.
  struct Slot {
    std::uint64_t hash = 0;
    std::unique_ptr<char[]> block;  // null: the slot is empty
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;

    bool used() const noexcept { return block != nullptr; }
    std::string_view key() const noexcept { return {block.get(), key_len}; }
    std::string_view value() const noexcept {
      return {block.get() + key_len, value_len};
    }
    char* value_data() noexcept { return block.get() + key_len; }
  };

  // Mutating primitives shared by the public ops and WAL replay.
  void InsertNoLog(std::string_view key, std::string_view value);
  bool EraseNoLog(std::string_view key);
  // Robin-hood placement of an entry known to be absent.
  void Place(Slot incoming);
  Slot* Find(std::string_view key) noexcept;
  const Slot* Find(std::string_view key) const noexcept;

  void Rehash(std::size_t new_capacity);
  std::size_t ProbeDistance(std::size_t slot_index, std::uint64_t hash) const noexcept;

  // Append one encoded record to the open WAL.  Callers check
  // wal_.IsOpen() first, so a memory-only table never encodes a record.
  Status LogAppend(std::string_view record);

  KvOptions options_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  Wal wal_;
};

}  // namespace loco::kv
