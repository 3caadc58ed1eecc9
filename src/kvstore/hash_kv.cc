#include "kvstore/hash_kv.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "kvstore/wal_records.h"

namespace loco::kv {

namespace {
constexpr std::size_t kInitialCapacity = 64;
constexpr double kMaxLoad = 0.70;
// Slots keep 32-bit lengths.
constexpr std::size_t kMaxLen = std::numeric_limits<std::uint32_t>::max();

std::uint64_t KeyHash(std::string_view key) noexcept {
  // Never zero/used as "empty" marker; Mix64 of FNV avoids clustering.
  return common::Mix64(common::Fnv1a64(key)) | 1;
}

std::unique_ptr<char[]> MakeBlock(std::string_view key,
                                  std::string_view value) {
  // At least one byte: a null block marks an empty slot.
  std::unique_ptr<char[]> block(
      new char[std::max<std::size_t>(1, key.size() + value.size())]);
  std::copy(key.begin(), key.end(), block.get());
  std::copy(value.begin(), value.end(), block.get() + key.size());
  return block;
}
}  // namespace

HashKV::HashKV(const KvOptions& options) : options_(options) {
  slots_.resize(kInitialCapacity);
}

Status HashKV::Open() {
  if (options_.dir.empty()) return OkStatus();
  const std::string path = options_.dir + "/hashkv.wal";
  auto replayed = walrec::Replay(path, [this](const walrec::Record& rec) {
    if (rec.op == walrec::kOpPut) {
      InsertNoLog(rec.key, rec.value);
    } else if (rec.op == walrec::kOpDelete) {
      EraseNoLog(rec.key);
    } else if (Slot* s = Find(rec.key);
               s != nullptr && rec.offset + rec.value.size() <= s->value_len) {
      std::copy(rec.value.begin(), rec.value.end(),
                s->value_data() + rec.offset);
    }
  });
  if (!replayed.ok()) return replayed.status();
  return wal_.Open(path, options_.sync_writes);
}

std::size_t HashKV::ProbeDistance(std::size_t slot_index,
                                  std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  const std::size_t home = static_cast<std::size_t>(hash) & mask;
  return (slot_index - home) & mask;
}

void HashKV::Rehash(std::size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(new_capacity);
  size_ = 0;
  for (Slot& s : old) {
    if (s.used()) Place(std::move(s));
  }
}

void HashKV::InsertNoLog(std::string_view key, std::string_view value) {
  if (Slot* s = Find(key)) {  // overwrite; a new block only if the size changes
    if (s->value_len == value.size()) {
      std::copy(value.begin(), value.end(), s->value_data());
    } else {
      s->block = MakeBlock(key, value);
      s->value_len = static_cast<std::uint32_t>(value.size());
    }
    return;
  }
  if (static_cast<double>(size_ + 1) >
      kMaxLoad * static_cast<double>(slots_.size())) {
    Rehash(slots_.size() * 2);
  }
  Slot incoming;
  incoming.hash = KeyHash(key);
  incoming.block = MakeBlock(key, value);
  incoming.key_len = static_cast<std::uint32_t>(key.size());
  incoming.value_len = static_cast<std::uint32_t>(value.size());
  Place(std::move(incoming));
}

void HashKV::Place(Slot incoming) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(incoming.hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    Slot& s = slots_[idx];
    if (!s.used()) {
      s = std::move(incoming);
      ++size_;
      return;
    }
    const std::size_t their_dist = ProbeDistance(idx, s.hash);
    if (their_dist < dist) {  // robin hood: steal from the rich
      std::swap(s, incoming);
      dist = their_dist;
    }
    idx = (idx + 1) & mask;
    ++dist;
  }
}

bool HashKV::EraseNoLog(std::string_view key) {
  const std::uint64_t hash = KeyHash(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    const Slot& s = slots_[idx];
    if (!s.used() || dist > ProbeDistance(idx, s.hash)) return false;
    if (s.hash == hash && s.key() == key) break;
    idx = (idx + 1) & mask;
    ++dist;
  }
  // Backward-shift deletion keeps probe chains dense.  The first shift
  // frees the erased block.
  std::size_t hole = idx;
  for (;;) {
    const std::size_t next = (hole + 1) & mask;
    Slot& n = slots_[next];
    if (!n.used() || ProbeDistance(next, n.hash) == 0) break;
    slots_[hole] = std::move(n);
    hole = next;
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

HashKV::Slot* HashKV::Find(std::string_view key) noexcept {
  return const_cast<Slot*>(std::as_const(*this).Find(key));
}

const HashKV::Slot* HashKV::Find(std::string_view key) const noexcept {
  const std::uint64_t hash = KeyHash(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(hash) & mask;
  std::size_t dist = 0;
  for (;;) {
    const Slot& s = slots_[idx];
    if (!s.used() || dist > ProbeDistance(idx, s.hash)) return nullptr;
    if (s.hash == hash && s.key() == key) return &s;
    idx = (idx + 1) & mask;
    ++dist;
  }
}

Status HashKV::LogAppend(std::string_view record) {
  stats_.io_ops += 1;
  stats_.io_bytes += Wal::kHeaderBytes + record.size();
  return wal_.Append(record);
}

Status HashKV::Put(std::string_view key, std::string_view value) {
  if (key.size() > kMaxLen || value.size() > kMaxLen) {
    return ErrStatus(ErrCode::kInvalid, "entry too large");
  }
  stats_.puts += 1;
  stats_.bytes_written += key.size() + value.size();
  InsertNoLog(key, value);
  return wal_.IsOpen() ? LogAppend(walrec::EncodePut(key, value))
                       : OkStatus();
}

Status HashKV::Get(std::string_view key, std::string* value) const {
  stats_.gets += 1;
  const Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  value->assign(s->value());
  stats_.bytes_read += s->value_len;
  return OkStatus();
}

Status HashKV::Delete(std::string_view key) {
  stats_.deletes += 1;
  if (!EraseNoLog(key)) return ErrStatus(ErrCode::kNotFound);
  return wal_.IsOpen() ? LogAppend(walrec::EncodeDelete(key)) : OkStatus();
}

bool HashKV::Contains(std::string_view key) const {
  stats_.gets += 1;
  return Find(key) != nullptr;
}

Status HashKV::PatchValue(std::string_view key, std::size_t offset,
                          std::string_view patch) {
  stats_.patches += 1;
  Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + patch.size() > s->value_len) {
    return ErrStatus(ErrCode::kInvalid, "patch out of range");
  }
  std::copy(patch.begin(), patch.end(), s->value_data() + offset);
  stats_.bytes_written += patch.size();
  return wal_.IsOpen() ? LogAppend(walrec::EncodePatch(key, offset, patch))
                       : OkStatus();
}

Status HashKV::ReadValueAt(std::string_view key, std::size_t offset,
                           std::size_t len, std::string* out) const {
  stats_.gets += 1;
  const Slot* s = Find(key);
  if (s == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + len > s->value_len) {
    return ErrStatus(ErrCode::kInvalid, "read out of range");
  }
  out->assign(s->value().substr(offset, len));
  stats_.bytes_read += len;
  return OkStatus();
}

Status HashKV::ScanPrefix(std::string_view prefix, std::size_t limit,
                          std::vector<Entry>* out) const {
  return VisitPrefix(prefix, limit,
                     [out](std::string_view key, std::string_view value) {
                       out->emplace_back(key, value);
                       return true;
                     });
}

Status HashKV::VisitPrefix(std::string_view prefix, std::size_t limit,
                           const Visitor& fn) const {
  stats_.scans += 1;
  // Hash mode has no key order: every record must be visited (the cost the
  // paper's Fig. 14 attributes to "hash DB" renames).
  std::size_t matched = 0;
  for (const Slot& s : slots_) {
    if (!s.used()) continue;
    stats_.scan_items += 1;
    if (!s.key().starts_with(prefix)) continue;
    stats_.bytes_read += s.value_len;
    if (!fn(s.key(), s.value())) break;
    if (limit != 0 && ++matched >= limit) break;
  }
  return OkStatus();
}

void HashKV::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  stats_.scans += 1;
  for (const Slot& s : slots_) {
    if (!s.used()) continue;
    stats_.scan_items += 1;
    if (!fn(s.key(), s.value())) return;
  }
}

}  // namespace loco::kv
