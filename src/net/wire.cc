#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "common/codec.h"
#include "common/metrics.h"

namespace loco::net::wire {

namespace {

void AppendLe(std::string* out, std::uint64_t value, int bytes) {
  for (int shift = 0; shift < bytes * 8; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

}  // namespace

void EncodeFrameInto(const FrameHeader& header, std::string_view payload,
                     std::string* out) {
  out->reserve(out->size() + kHeaderBytes + payload.size());
  AppendLe(out, kMagic, 4);
  AppendLe(out, kVersion, 1);
  AppendLe(out, static_cast<std::uint8_t>(header.type), 1);
  AppendLe(out, header.opcode, 2);
  AppendLe(out, header.request_id, 8);
  AppendLe(out, header.trace_id, 8);
  AppendLe(out, static_cast<std::uint8_t>(header.code), 1);
  AppendLe(out, static_cast<std::uint32_t>(payload.size()), 4);
  AppendLe(out, header.deadline_budget_ns, 8);
  AppendLe(out, header.priority, 1);
  out->append(payload.data(), payload.size());
}

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  std::string out;
  EncodeFrameInto(header, payload, &out);
  return out;
}

Status DecodeHeader(std::string_view bytes, FrameHeader* out) {
  common::Reader r(bytes);
  const std::uint32_t magic = r.GetU32();
  const std::uint8_t version = r.GetU8();
  const std::uint8_t type = r.GetU8();
  out->opcode = r.GetU16();
  out->request_id = r.GetU64();
  out->trace_id = r.GetU64();
  const std::uint8_t code = r.GetU8();
  out->payload_len = r.GetU32();
  out->deadline_budget_ns = r.GetU64();
  out->priority = r.GetU8();
  if (!r.ok()) return ErrStatus(ErrCode::kCorruption, "short frame header");
  if (magic != kMagic) return ErrStatus(ErrCode::kCorruption, "bad frame magic");
  if (version != kVersion) {
    return ErrStatus(ErrCode::kCorruption, "unsupported frame version");
  }
  if (type != static_cast<std::uint8_t>(FrameType::kRequest) &&
      type != static_cast<std::uint8_t>(FrameType::kResponse) &&
      type != static_cast<std::uint8_t>(FrameType::kNotify)) {
    return ErrStatus(ErrCode::kCorruption, "bad frame type");
  }
  if (code > kMaxErrCode) {
    return ErrStatus(ErrCode::kCorruption, "bad frame error code");
  }
  if (out->priority >= kPriorityCount) {
    return ErrStatus(ErrCode::kCorruption, "bad frame priority");
  }
  out->type = static_cast<FrameType>(type);
  out->code = static_cast<ErrCode>(code);
  return OkStatus();
}

std::string EncodeHello(const Hello& hello) {
  common::Writer w;
  w.PutU32(hello.proto_version);
  w.PutU64(hello.features);
  w.PutU64(hello.client_id);
  return w.Take();
}

Status DecodeHello(std::string_view bytes, Hello* out) {
  common::Reader r(bytes);
  out->proto_version = r.GetU32();
  out->features = r.GetU64();
  out->client_id = r.GetU64();
  if (!r.ok() || !r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad hello payload");
  }
  return OkStatus();
}

std::string EncodeHelloReply(const HelloReply& reply) {
  common::Writer w;
  w.PutU32(reply.proto_version);
  w.PutU64(reply.features);
  w.PutU64(reply.epoch);
  return w.Take();
}

Status DecodeHelloReply(std::string_view bytes, HelloReply* out) {
  common::Reader r(bytes);
  out->proto_version = r.GetU32();
  out->features = r.GetU64();
  out->epoch = r.GetU64();
  if (!r.ok() || !r.AtEnd()) {
    return ErrStatus(ErrCode::kCorruption, "bad hello reply payload");
  }
  return OkStatus();
}

std::string EncodeBatchRequest(const std::vector<std::string>& subops) {
  common::Writer w;
  w.PutU32(static_cast<std::uint32_t>(subops.size()));
  for (const std::string& sub : subops) {
    w.PutU32(static_cast<std::uint32_t>(sub.size()));
    w.PutRaw(sub);
  }
  return w.Take();
}

std::string EncodeBatchResponse(const std::vector<BatchItem>& items) {
  common::Writer w;
  w.PutU32(static_cast<std::uint32_t>(items.size()));
  for (const BatchItem& item : items) {
    w.PutU8(static_cast<std::uint8_t>(item.code));
    w.PutU32(static_cast<std::uint32_t>(item.payload.size()));
    w.PutRaw(item.payload);
  }
  return w.Take();
}

RpcResponse BatchReply(const std::vector<BatchItem>& items) {
  const auto failed = static_cast<std::uint64_t>(std::count_if(
      items.begin(), items.end(),
      [](const BatchItem& item) { return item.code != ErrCode::kOk; }));
  auto& reg = common::MetricsRegistry::Default();
  reg.GetCounter("rpc.batch.calls").Add();
  reg.GetCounter("rpc.batch.subops").Add(items.size());
  if (failed > 0) reg.GetCounter("rpc.batch.partial_failures").Add(failed);
  return OkPayload(EncodeBatchResponse(items));
}

RpcResponse ServeBatch(std::string_view payload,
                       const std::function<RpcResponse(std::string_view)>& op) {
  std::vector<std::string_view> subops;
  if (!DecodeBatchRequest(payload, &subops)) return BadRequest();
  std::vector<BatchItem> items;
  items.reserve(subops.size());
  common::Nanos extra_service_ns = 0;
  for (const std::string_view sub : subops) {
    RpcResponse r = op(sub);
    extra_service_ns += r.extra_service_ns;
    items.push_back(BatchItem{r.code, std::move(r.payload)});
  }
  RpcResponse reply = BatchReply(items);
  reply.extra_service_ns = extra_service_ns;
  return reply;
}

bool DecodeBatchRequest(std::string_view payload,
                        std::vector<std::string_view>* out) {
  common::Reader r(payload);
  const std::uint32_t count = r.GetU32();
  if (!r.ok()) return false;
  // Every item costs at least its 4-byte length prefix, so a count the
  // remaining bytes cannot possibly hold is rejected before any allocation.
  if (count > (payload.size() - 4) / 4) return false;
  out->clear();
  out->reserve(count);
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload.size() - off < 4) return false;
    std::uint32_t len = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(payload[off + shift / 8]))
             << shift;
    }
    off += 4;
    if (payload.size() - off < len) return false;
    out->push_back(payload.substr(off, len));
    off += len;
  }
  return off == payload.size();
}

bool DecodeBatchResponse(std::string_view payload, std::vector<BatchItem>* out) {
  common::Reader r(payload);
  const std::uint32_t count = r.GetU32();
  if (!r.ok()) return false;
  // Each item costs at least 5 bytes (code + length prefix).
  if (count > (payload.size() - 4) / 5) return false;
  out->clear();
  out->reserve(count);
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload.size() - off < 5) return false;
    const auto code = static_cast<unsigned char>(payload[off]);
    if (code > kMaxErrCode) return false;
    ++off;
    std::uint32_t len = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(payload[off + shift / 8]))
             << shift;
    }
    off += 4;
    if (payload.size() - off < len) return false;
    BatchItem item;
    item.code = static_cast<ErrCode>(code);
    item.payload.assign(payload.substr(off, len));
    out->push_back(std::move(item));
    off += len;
  }
  return off == payload.size();
}

// ---------------------------------------------------------------------------
// PinnedFrameReader
// ---------------------------------------------------------------------------

namespace {
// Retired-but-pinned chunks kept waiting for their handlers; beyond this the
// oldest is simply dropped (its pins still own it via shared_ptr).
constexpr std::size_t kMaxPooledChunks = 8;
}  // namespace

PinnedFrameReader::PinnedFrameReader(std::uint32_t max_payload,
                                     std::size_t chunk_bytes)
    : max_payload_(max_payload),
      chunk_bytes_(chunk_bytes < kHeaderBytes ? kHeaderBytes : chunk_bytes) {}

PinnedFrameReader::Chunk PinnedFrameReader::MakeChunk() {
  Chunk chunk;
  // Reuse a retired chunk only once every pinned frame in it is gone; the
  // data pointer must stay stable, so the string is sized once and only the
  // side `size` counter tracks valid bytes from then on.
  for (auto it = pool_.begin(); it != pool_.end(); ++it) {
    if (it->use_count() == 1) {
      chunk.buf = std::move(*it);
      pool_.erase(it);
      return chunk;
    }
  }
  chunk.buf = std::make_shared<std::string>();
  chunk.buf->resize(chunk_bytes_);
  return chunk;
}

void PinnedFrameReader::PopFrontIfExhausted() {
  while (!chunks_.empty() && read_off_ == chunks_.front().size &&
         (chunks_.size() > 1 || chunks_.front().size == chunk_bytes_)) {
    if (pool_.size() < kMaxPooledChunks) {
      pool_.push_back(std::move(chunks_.front().buf));
    }
    chunks_.pop_front();
    read_off_ = 0;
  }
}

char* PinnedFrameReader::RecvInto(std::size_t min_bytes, std::size_t* capacity) {
  if (min_bytes > chunk_bytes_) min_bytes = chunk_bytes_;
  if (chunks_.empty() || chunk_bytes_ - chunks_.back().size < min_bytes) {
    chunks_.push_back(MakeChunk());
  }
  Chunk& back = chunks_.back();
  *capacity = chunk_bytes_ - back.size;
  return back.buf->data() + back.size;
}

void PinnedFrameReader::Commit(std::size_t n) {
  chunks_.back().size += n;
  buffered_ += n;
}

void PinnedFrameReader::CopyOut(std::size_t n, char* out) {
  while (n > 0) {
    Chunk& front = chunks_.front();
    const std::size_t avail = front.size - read_off_;
    const std::size_t take = n < avail ? n : avail;
    std::memcpy(out, front.buf->data() + read_off_, take);
    out += take;
    read_off_ += take;
    buffered_ -= take;
    n -= take;
    PopFrontIfExhausted();
  }
}

std::optional<PinnedFrame> PinnedFrameReader::Next() {
  if (!status_.ok()) return std::nullopt;
  if (buffered_ < kHeaderBytes) return std::nullopt;
  // Peek without consuming: view the header in place when the front chunk
  // holds it whole, else assemble it across chunks in a stack copy.
  FrameHeader header;
  char scratch[kHeaderBytes];
  std::string_view header_bytes;
  const Chunk& front = chunks_.front();
  if (front.size - read_off_ >= kHeaderBytes) {
    header_bytes =
        std::string_view(front.buf->data() + read_off_, kHeaderBytes);
  } else {
    std::size_t copied = 0;
    std::size_t off = read_off_;
    for (auto it = chunks_.begin(); copied < kHeaderBytes; ++it) {
      const std::size_t take = std::min(kHeaderBytes - copied, it->size - off);
      std::memcpy(scratch + copied, it->buf->data() + off, take);
      copied += take;
      off = 0;
    }
    header_bytes = std::string_view(scratch, kHeaderBytes);
  }
  status_ = DecodeHeader(header_bytes, &header);
  if (!status_.ok()) return std::nullopt;
  if (header.payload_len > max_payload_) {
    status_ = ErrStatus(ErrCode::kCorruption, "frame payload over cap");
    return std::nullopt;
  }
  if (buffered_ < kHeaderBytes + header.payload_len) return std::nullopt;

  PinnedFrame frame;
  frame.header = header;
  // Consume the header, then serve the payload in place when one chunk holds
  // it all — the hot path: recv() landed the frame contiguously, and the
  // handler reads the very bytes the kernel wrote.
  CopyOut(kHeaderBytes, scratch);
  if (header.payload_len == 0) {
    frame.zero_copy = true;
    ++zero_copy_frames_;
    return frame;
  }
  Chunk& pfront = chunks_.front();
  if (pfront.size - read_off_ >= header.payload_len) {
    frame.payload =
        std::string_view(pfront.buf->data() + read_off_, header.payload_len);
    frame.pin = pfront.buf;
    frame.zero_copy = true;
    ++zero_copy_frames_;
    read_off_ += header.payload_len;
    buffered_ -= header.payload_len;
    PopFrontIfExhausted();
    return frame;
  }
  auto assembled = std::make_shared<std::string>();
  assembled->resize(header.payload_len);
  CopyOut(header.payload_len, assembled->data());
  frame.payload = std::string_view(*assembled);
  frame.pin = std::move(assembled);
  frame.zero_copy = false;
  ++assembled_frames_;
  return frame;
}

}  // namespace loco::net::wire
