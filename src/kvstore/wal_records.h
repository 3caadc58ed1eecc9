// Shared WAL record codec for the mutation log of HashKV / BTreeKV and the
// LSM write path.  One record per logical mutation:
//   put:    [kOpPut][bytes key][bytes value]
//   delete: [kOpDelete][bytes key]
//   patch:  [kOpPatch][bytes key][u64 offset][bytes patch]
// A store counts Wal::kHeaderBytes + record size as the record's io_bytes,
// which is what it adds to the log file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/codec.h"
#include "kvstore/wal.h"

namespace loco::kv::walrec {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpDelete = 2;
constexpr std::uint8_t kOpPatch = 3;

inline std::string EncodePut(std::string_view key, std::string_view value) {
  common::Writer w;
  w.PutU8(kOpPut);
  w.PutBytes(key);
  w.PutBytes(value);
  return w.Take();
}

inline std::string EncodeDelete(std::string_view key) {
  common::Writer w;
  w.PutU8(kOpDelete);
  w.PutBytes(key);
  return w.Take();
}

inline std::string EncodePatch(std::string_view key, std::uint64_t offset,
                               std::string_view patch) {
  common::Writer w;
  w.PutU8(kOpPatch);
  w.PutBytes(key);
  w.PutU64(offset);
  w.PutBytes(patch);
  return w.Take();
}

// One decoded record, viewing the replayed bytes.
struct Record {
  std::uint8_t op = 0;
  std::string_view key;
  std::string_view value;    // put: the value; patch: the patch bytes
  std::uint64_t offset = 0;  // patch only
};

// Replay the log at `path` (Wal::Replay), handing each well-formed record
// to `apply`; records with an unknown op or a malformed body are skipped.
inline Result<std::size_t> Replay(
    const std::string& path, const std::function<void(const Record&)>& apply) {
  return Wal::Replay(path, [&apply](std::string_view bytes) {
    common::Reader r(bytes);
    Record rec;
    rec.op = r.GetU8();
    rec.key = r.GetBytes();
    if (rec.op == kOpPut) {
      rec.value = r.GetBytes();
    } else if (rec.op == kOpPatch) {
      rec.offset = r.GetU64();
      rec.value = r.GetBytes();
    } else if (rec.op != kOpDelete) {
      return;
    }
    if (r.ok()) apply(rec);
  });
}

}  // namespace loco::kv::walrec
