// Write-ahead log shared by the persistent KV stores.
//
// Record framing:  [u32 crc][u32 len][payload]   (little endian)
// crc covers the payload only.  Replay stops at the first corrupt or
// truncated record, which makes a torn tail after a crash recoverable.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace loco::kv {

// CRC32 (Castagnoli polynomial, table-driven).
std::uint32_t Crc32c(std::string_view data) noexcept;

class Wal {
 public:
  // Bytes of the [crc][len] frame in front of every record's payload.
  static constexpr std::size_t kHeaderBytes = 8;

  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Open (creating if needed) the log at `path` for appending.
  Status Open(const std::string& path, bool sync_writes);

  bool IsOpen() const noexcept { return file_ != nullptr; }

  // Append one framed record.
  Status Append(std::string_view payload);

  // Replay every intact record of the log at `path` in order.
  // Returns the number of records delivered.  A corrupt/truncated tail is
  // not an error; it is simply where replay stops.
  static Result<std::size_t> Replay(
      const std::string& path,
      const std::function<void(std::string_view)>& fn);

  // Truncate the log (e.g. after an LSM memtable flush made it redundant).
  Status Truncate();

  void Close();

  std::uint64_t appended_bytes() const noexcept { return appended_bytes_; }
  std::uint64_t appended_records() const noexcept { return appended_records_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool sync_ = false;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t appended_records_ = 0;
};

}  // namespace loco::kv
