// Fixed-length metadata value layouts — the "(de)serialization removal" of
// §3.3.3.  Every field sits at a compile-time byte offset inside the stored
// KV value, so a single-field update is Kv::PatchValue of a few bytes and a
// single-field read is Kv::ReadValueAt; the value is never re-encoded.
//
// Layouts (little endian):
//   d-inode (DMS, keyed by full path), 48 B:
//     [0]  u64 ctime   [8]  u32 mode  [12] u32 uid  [16] u32 gid
//     [20] u32 flags   [24] u64 uuid  [32] u64 mtime [40] u64 atime
//   f-inode access part (FMS, keyed by dir_uuid+name), 24 B:
//     [0]  u64 ctime   [8]  u32 mode  [12] u32 uid  [16] u32 gid  [20] u32 pad
//   f-inode content part (FMS, keyed by dir_uuid+name), 40 B:
//     [0]  u64 mtime   [8]  u64 atime [16] u64 size [24] u32 bsize
//     [28] u32 pad     [32] u64 uuid  (uuid = sid|fid, §3.3.2)
//
// The "coupled" layout (LocoFS-CF, the Fig. 11 baseline) instead serializes
// the whole inode — including the variable-length name and per-block index
// list that §3.3.2 removes — so every update is a full decode/modify/encode
// round trip plus a whole-value Put.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "fs/types.h"
#include "kvstore/kv.h"

namespace loco::core {

// ---------------------------------------------------------------- d-inode --
struct DirInodeLayout {
  static constexpr std::size_t kCtime = 0;
  static constexpr std::size_t kMode = 8;
  static constexpr std::size_t kUid = 12;
  static constexpr std::size_t kGid = 16;
  static constexpr std::size_t kFlags = 20;
  static constexpr std::size_t kUuid = 24;
  static constexpr std::size_t kMtime = 32;
  static constexpr std::size_t kAtime = 40;
  static constexpr std::size_t kSize = 48;

  static std::string Make(const fs::Attr& attr) {
    std::string v(kSize, '\0');
    common::StoreAt<std::uint64_t>(&v, kCtime, attr.ctime);
    common::StoreAt<std::uint32_t>(&v, kMode, attr.mode);
    common::StoreAt<std::uint32_t>(&v, kUid, attr.uid);
    common::StoreAt<std::uint32_t>(&v, kGid, attr.gid);
    common::StoreAt<std::uint64_t>(&v, kUuid, attr.uuid.raw());
    common::StoreAt<std::uint64_t>(&v, kMtime, attr.mtime);
    common::StoreAt<std::uint64_t>(&v, kAtime, attr.atime);
    return v;
  }

  static fs::Attr Parse(std::string_view v) {
    fs::Attr attr;
    attr.ctime = common::LoadAt<std::uint64_t>(v, kCtime);
    attr.mode = common::LoadAt<std::uint32_t>(v, kMode);
    attr.uid = common::LoadAt<std::uint32_t>(v, kUid);
    attr.gid = common::LoadAt<std::uint32_t>(v, kGid);
    attr.uuid = fs::Uuid(common::LoadAt<std::uint64_t>(v, kUuid));
    attr.mtime = common::LoadAt<std::uint64_t>(v, kMtime);
    attr.atime = common::LoadAt<std::uint64_t>(v, kAtime);
    attr.is_dir = true;
    return attr;
  }
};

// ---------------------------------------------------- f-inode, access part --
struct AccessPartLayout {
  static constexpr std::size_t kCtime = 0;
  static constexpr std::size_t kMode = 8;
  static constexpr std::size_t kUid = 12;
  static constexpr std::size_t kGid = 16;
  static constexpr std::size_t kSize = 24;

  static std::string Make(std::uint64_t ctime, std::uint32_t mode,
                          std::uint32_t uid, std::uint32_t gid) {
    std::string v(kSize, '\0');
    common::StoreAt<std::uint64_t>(&v, kCtime, ctime);
    common::StoreAt<std::uint32_t>(&v, kMode, mode);
    common::StoreAt<std::uint32_t>(&v, kUid, uid);
    common::StoreAt<std::uint32_t>(&v, kGid, gid);
    return v;
  }
};

// --------------------------------------------------- f-inode, content part --
struct ContentPartLayout {
  static constexpr std::size_t kMtime = 0;
  static constexpr std::size_t kAtime = 8;
  static constexpr std::size_t kFileSize = 16;
  static constexpr std::size_t kBlockSize = 24;
  static constexpr std::size_t kUuid = 32;
  static constexpr std::size_t kSize = 40;

  static std::string Make(std::uint64_t mtime, std::uint64_t atime,
                          std::uint64_t file_size, std::uint32_t block_size,
                          fs::Uuid uuid) {
    std::string v(kSize, '\0');
    common::StoreAt<std::uint64_t>(&v, kMtime, mtime);
    common::StoreAt<std::uint64_t>(&v, kAtime, atime);
    common::StoreAt<std::uint64_t>(&v, kFileSize, file_size);
    common::StoreAt<std::uint32_t>(&v, kBlockSize, block_size);
    common::StoreAt<std::uint64_t>(&v, kUuid, uuid.raw());
    return v;
  }
};

// Combine the two fixed parts into a full Attr.
inline fs::Attr ParseFileParts(std::string_view access, std::string_view content) {
  fs::Attr attr;
  attr.ctime = common::LoadAt<std::uint64_t>(access, AccessPartLayout::kCtime);
  attr.mode = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kMode);
  attr.uid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kUid);
  attr.gid = common::LoadAt<std::uint32_t>(access, AccessPartLayout::kGid);
  attr.mtime = common::LoadAt<std::uint64_t>(content, ContentPartLayout::kMtime);
  attr.atime = common::LoadAt<std::uint64_t>(content, ContentPartLayout::kAtime);
  attr.size = common::LoadAt<std::uint64_t>(content, ContentPartLayout::kFileSize);
  attr.block_size =
      common::LoadAt<std::uint32_t>(content, ContentPartLayout::kBlockSize);
  attr.uuid = fs::Uuid(common::LoadAt<std::uint64_t>(content, ContentPartLayout::kUuid));
  attr.is_dir = false;
  return attr;
}

// ------------------------------------------------- coupled f-inode (CF) -----
// Whole-inode serialized value used when decoupled file metadata is disabled
// (the LocoFS-CF configuration in Fig. 11).  Variable length: carries the
// file name and a per-block index list, so any update must deserialize,
// modify, and reserialize the full record.
struct CoupledInode {
  fs::Attr attr;
  std::string name;
  std::vector<std::uint64_t> block_index;

  std::string Serialize() const {
    common::Writer w;
    w.PutU64(attr.ctime);
    w.PutU32(attr.mode);
    w.PutU32(attr.uid);
    w.PutU32(attr.gid);
    w.PutU64(attr.mtime);
    w.PutU64(attr.atime);
    w.PutU64(attr.size);
    w.PutU32(attr.block_size);
    w.PutU64(attr.uuid.raw());
    w.PutBytes(name);
    w.PutU32(static_cast<std::uint32_t>(block_index.size()));
    for (std::uint64_t b : block_index) w.PutU64(b);
    return w.Take();
  }

  static bool Deserialize(std::string_view data, CoupledInode* out) {
    common::Reader r(data);
    out->attr.ctime = r.GetU64();
    out->attr.mode = r.GetU32();
    out->attr.uid = r.GetU32();
    out->attr.gid = r.GetU32();
    out->attr.mtime = r.GetU64();
    out->attr.atime = r.GetU64();
    out->attr.size = r.GetU64();
    out->attr.block_size = r.GetU32();
    out->attr.uuid = fs::Uuid(r.GetU64());
    out->attr.is_dir = false;
    out->name = r.GetString();
    const std::uint32_t n = r.GetU32();
    out->block_index.clear();
    out->block_index.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      out->block_index.push_back(r.GetU64());
    }
    return r.ok() && r.AtEnd();
  }
};

// --------------------------------------------------------------- KV keys ----
// File metadata key: 8-byte parent uuid + name (the consistent-hash key of
// §3.1).
inline std::string FileKey(fs::Uuid dir_uuid, std::string_view name) {
  std::string key(8, '\0');
  common::StoreAt<std::uint64_t>(&key, 0, dir_uuid.raw());
  key.append(name);
  return key;
}

// -------------------------------------------------------- dirent records ----
// One record per directory entry — subdirectories on the DMS, files on each
// FMS — keyed by the 8-byte directory uuid + the entry name, with an empty
// value.  A directory's records share the uuid prefix, so in an ordered store
// they are one contiguous run in name order, and dirent stores route stripes
// by that prefix (kDirentRouteBytes, kv::MakeStripedKv) so the run never
// spans stripes.  Adding or removing an entry is one record put or delete.
// The paper instead concatenates a directory's names into one value
// (§3.2.1); DESIGN.md §2 gives the measured reason for the departure.
constexpr std::size_t kDirentRouteBytes = 8;

inline std::string DirentPrefix(fs::Uuid dir_uuid) {
  std::string prefix(kDirentRouteBytes, '\0');
  common::StoreAt<std::uint64_t>(&prefix, 0, dir_uuid.raw());
  return prefix;
}

inline std::string DirentKey(fs::Uuid dir_uuid, std::string_view name) {
  return FileKey(dir_uuid, name);
}

// Names of `dir`'s entries, in name order.
std::vector<std::string> ListDirents(const kv::Kv& store, fs::Uuid dir);
// True when `dir` has at least one entry.
bool HasDirents(const kv::Kv& store, fs::Uuid dir);
// Delete every record of `dir`; returns how many there were.
std::size_t DeleteDirents(kv::Kv* store, fs::Uuid dir);
// Every directory that has records, with its names in name order.
std::map<std::uint64_t, std::vector<std::string>> DirentsByDir(
    const kv::Kv& store);
// The fsck scan payload (kDmsScanDirents / kFmsScanDirents): one
// Pack(dir uuid, names) per directory that has records.
std::string DirentScanPayload(const kv::Kv& store);

}  // namespace loco::core
