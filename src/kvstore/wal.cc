#include "kvstore/wal.h"

#include <unistd.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/codec.h"

namespace loco::kv {

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82f63b78;  // CRC-32C reflected
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& CrcTable() {
  static const auto table = BuildCrcTable();
  return table;
}

}  // namespace

std::uint32_t Crc32c(std::string_view data) noexcept {
  const auto& table = CrcTable();
  std::uint32_t crc = 0xffffffff;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffff;
}

Wal::~Wal() { Close(); }

Status Wal::Open(const std::string& path, bool sync_writes) {
  Close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return ErrStatus(ErrCode::kIo, "cannot open WAL " + path);
  }
  path_ = path;
  sync_ = sync_writes;
  return OkStatus();
}

Status Wal::Append(std::string_view payload) {
  if (file_ == nullptr) return ErrStatus(ErrCode::kIo, "WAL not open");
  common::Writer header;
  header.PutU32(Crc32c(payload));
  header.PutU32(static_cast<std::uint32_t>(payload.size()));
  if (std::fwrite(header.str().data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) != payload.size()) {
    return ErrStatus(ErrCode::kIo, "WAL append failed");
  }
  if (std::fflush(file_) != 0) return ErrStatus(ErrCode::kIo, "WAL flush failed");
  if (sync_ && ::fsync(::fileno(file_)) != 0) {
    return ErrStatus(ErrCode::kIo, "WAL fsync failed");
  }
  appended_records_ += 1;
  appended_bytes_ += header.size() + payload.size();
  return OkStatus();
}

Result<std::size_t> Wal::Replay(const std::string& path,
                                const std::function<void(std::string_view)>& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::size_t{0};  // no log yet: nothing to replay
  std::size_t delivered = 0;
  std::vector<char> payload;
  for (;;) {
    char header[kHeaderBytes];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) break;
    common::Reader r(std::string_view(header, sizeof(header)));
    const std::uint32_t crc = r.GetU32();
    const std::uint32_t len = r.GetU32();
    if (len > (1u << 30)) break;  // implausible length: corrupt tail
    payload.resize(len);
    if (len != 0 && std::fread(payload.data(), 1, len, f) != len) break;
    std::string_view body(payload.data(), len);
    if (Crc32c(body) != crc) break;
    fn(body);
    ++delivered;
  }
  std::fclose(f);
  return delivered;
}

Status Wal::Truncate() {
  if (file_ == nullptr) return ErrStatus(ErrCode::kIo, "WAL not open");
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return ErrStatus(ErrCode::kIo, "WAL truncate failed");
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) return ErrStatus(ErrCode::kIo, "WAL reopen failed");
  return OkStatus();
}

void Wal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace loco::kv
