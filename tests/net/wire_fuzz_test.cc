// Property/fuzz tests for wire::PinnedFrameReader (deterministic,
// seed-driven), the frame reader of every daemon and client.
//
// The reader is the only code that touches attacker-controlled bytes before
// authentication of any kind, so it must never crash, over-read, or allocate
// proportionally to a length field it has not validated.  These tests feed it
// valid frames split at every boundary, random garbage, bit-flipped headers
// and oversized length fields, and assert the latching-kCorruption contract.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire.h"
#include "support/pinned_feed.h"

namespace loco::net::wire {
namespace {

FrameHeader RequestHeader(std::uint16_t opcode, std::uint64_t request_id) {
  FrameHeader h;
  h.type = FrameType::kRequest;
  h.opcode = opcode;
  h.request_id = request_id;
  h.trace_id = request_id * 31 + 7;
  return h;
}

// A frame as the sender built it.
struct SentFrame {
  FrameHeader header;
  std::string payload;
};

std::string RandomPayload(common::Rng& rng, std::size_t max_len) {
  std::string payload(rng.Uniform(max_len + 1), '\0');
  for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
  return payload;
}

// Feed `bytes` to a fresh reader in chunks chosen by `rng`; collect every
// frame it yields.  Exercises all resume points of the incremental decoder.
std::vector<PinnedFrame> DrainChunked(common::Rng& rng,
                                      const std::string& bytes,
                                      Status* final_status) {
  PinnedFrameReader reader;
  std::vector<PinnedFrame> frames;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t len =
        1 + rng.Uniform(std::min<std::size_t>(bytes.size() - pos, 97));
    FeedPinned(reader, std::string_view(bytes).substr(pos, len), len);
    pos += len;
    while (auto frame = reader.Next()) frames.push_back(std::move(*frame));
    if (!reader.status().ok()) break;
  }
  *final_status = reader.status();
  return frames;
}

TEST(WireFuzzTest, ValidFramesSurviveArbitraryChunking) {
  common::Rng rng(0xF00D);
  for (int round = 0; round < 50; ++round) {
    std::vector<SentFrame> sent;
    std::string stream;
    const int count = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < count; ++i) {
      SentFrame f;
      f.header = RequestHeader(static_cast<std::uint16_t>(rng.Uniform(512)),
                               rng.Next());
      f.payload = RandomPayload(rng, 4096);
      stream += EncodeFrame(f.header, f.payload);
      sent.push_back(std::move(f));
    }
    Status status;
    const std::vector<PinnedFrame> got = DrainChunked(rng, stream, &status);
    ASSERT_TRUE(status.ok()) << "round " << round;
    ASSERT_EQ(got.size(), sent.size()) << "round " << round;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].header.opcode, sent[i].header.opcode);
      EXPECT_EQ(got[i].header.request_id, sent[i].header.request_id);
      EXPECT_EQ(got[i].header.trace_id, sent[i].header.trace_id);
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
  }
}

TEST(WireFuzzTest, SingleByteFeedingYieldsSameFrames) {
  common::Rng rng(0xBEEF);
  SentFrame f;
  f.header = RequestHeader(7, 1234567);
  f.payload = RandomPayload(rng, 256);
  const std::string bytes = EncodeFrame(f.header, f.payload);

  PinnedFrameReader reader;
  std::vector<PinnedFrame> got;
  for (char c : bytes) {
    FeedPinned(reader, std::string_view(&c, 1), 1);
    while (auto frame = reader.Next()) got.push_back(std::move(*frame));
  }
  ASSERT_TRUE(reader.status().ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, f.payload);
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesAndUsuallyLatches) {
  common::Rng rng(0xDEAD);
  for (int round = 0; round < 200; ++round) {
    const std::string garbage = RandomPayload(rng, 2048);
    Status status;
    const std::vector<PinnedFrame> frames =
        DrainChunked(rng, garbage, &status);
    // Random bytes essentially never form a valid magic, so any fully decoded
    // frame is a bug; the reader must either wait for more bytes (ok status,
    // no frames) or latch kCorruption.  Either way: no crash, no UB.
    EXPECT_TRUE(frames.empty()) << "round " << round;
    if (!status.ok()) {
      EXPECT_EQ(status.code(), ErrCode::kCorruption) << "round " << round;
    }
  }
}

TEST(WireFuzzTest, BitFlippedHeadersLatchCorruption) {
  common::Rng rng(0xC0FFEE);
  SentFrame f;
  f.header = RequestHeader(9, 42);
  f.payload = "payload-bytes";
  const std::string good = EncodeFrame(f.header, f.payload);

  int latched = 0;
  // Flip every bit of the magic/version/type/code bytes in turn; each flip
  // must either latch kCorruption immediately or (for the code byte, whose
  // domain is wider than one valid value) still never yield a mangled frame
  // that claims a different length than it carries.
  const std::size_t offsets[] = {0, 1, 2, 3, 4, 5, 24};
  for (std::size_t offset : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = good;
      bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
      Status status;
      const std::vector<PinnedFrame> frames =
          DrainChunked(rng, bytes, &status);
      if (!status.ok()) {
        EXPECT_EQ(status.code(), ErrCode::kCorruption);
        EXPECT_TRUE(frames.empty());
        ++latched;
      } else {
        // A flip that survived decoding may only do so with intact framing.
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].payload.size(), f.payload.size());
      }
    }
  }
  // Magic (4 bytes), version, and type flips are all fatal: >= 48 latches.
  EXPECT_GE(latched, 48);
}

TEST(WireFuzzTest, OversizedLengthLatchesWithoutAllocating) {
  FrameHeader h = RequestHeader(3, 5);
  const std::string frame = EncodeFrame(h, "tiny");
  // Rewrite payload_len (last 4 header bytes, little-endian) to a value far
  // above the reader's cap, keeping only the header bytes.
  std::string bytes = frame.substr(0, kHeaderBytes);
  const std::uint32_t huge = 0xFFFFFFF0u;
  bytes[25] = static_cast<char>(huge & 0xFF);
  bytes[26] = static_cast<char>((huge >> 8) & 0xFF);
  bytes[27] = static_cast<char>((huge >> 16) & 0xFF);
  bytes[28] = static_cast<char>((huge >> 24) & 0xFF);

  PinnedFrameReader reader(/*max_payload=*/1024);
  FeedPinned(reader, bytes, bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  ASSERT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
  // The reader must not have buffered gigabytes waiting for a payload it
  // already rejected; it holds at most what we fed it.
  EXPECT_LE(reader.buffered(), bytes.size());

  // Latching is permanent: even a subsequent valid frame stays unread.
  FeedPinned(reader, frame, frame.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
}

TEST(WireFuzzTest, PayloadJustOverCapLatches) {
  FrameHeader h = RequestHeader(3, 5);
  const std::string payload(1025, 'x');
  const std::string bytes = EncodeFrame(h, payload);
  PinnedFrameReader reader(/*max_payload=*/1024);
  FeedPinned(reader, bytes, bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);

  // Exactly at the cap is fine.
  PinnedFrameReader ok_reader(/*max_payload=*/1025);
  FeedPinned(ok_reader, bytes, bytes.size());
  auto frame = ok_reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, payload);
}

TEST(WireFuzzTest, TruncatedFramesWaitQuietly) {
  common::Rng rng(0x7A57E);
  SentFrame f;
  f.header = RequestHeader(11, 99);
  f.payload = RandomPayload(rng, 512);
  const std::string bytes = EncodeFrame(f.header, f.payload);
  // Every proper prefix must decode to "need more bytes", never an error and
  // never a frame.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    PinnedFrameReader reader;
    FeedPinned(reader, std::string_view(bytes).substr(0, cut), bytes.size());
    EXPECT_FALSE(reader.Next().has_value()) << "cut " << cut;
    ASSERT_TRUE(reader.status().ok()) << "cut " << cut;
    // Completing the stream always recovers the original frame.
    FeedPinned(reader, std::string_view(bytes).substr(cut), bytes.size());
    auto frame = reader.Next();
    ASSERT_TRUE(frame.has_value()) << "cut " << cut;
    EXPECT_EQ(frame->payload, f.payload);
  }
}

// ---- batch envelope corpus -------------------------------------------
// The batch codecs sit directly behind the frame reader on the server hot
// path:
// a decoded frame's payload is handed to DecodeBatchRequest/-Response with
// no intermediate validation, so the decoders carry the same contract —
// reject any count/length disagreement, never read past the payload, never
// allocate proportionally to an unvalidated count.

TEST(WireFuzzTest, BatchRoundTripSurvivesChunkedFraming) {
  common::Rng rng(0xBA7C4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::string> subops;
    const int count = static_cast<int>(rng.Uniform(9));
    for (int i = 0; i < count; ++i) subops.push_back(RandomPayload(rng, 300));
    const std::string stream =
        EncodeFrame(RequestHeader(48, rng.Next()), EncodeBatchRequest(subops));
    Status status;
    const std::vector<PinnedFrame> frames = DrainChunked(rng, stream, &status);
    ASSERT_TRUE(status.ok()) << "round " << round;
    ASSERT_EQ(frames.size(), 1u) << "round " << round;
    std::vector<std::string_view> decoded;
    ASSERT_TRUE(DecodeBatchRequest(frames[0].payload, &decoded));
    ASSERT_EQ(decoded.size(), subops.size());
    for (std::size_t i = 0; i < subops.size(); ++i) {
      EXPECT_EQ(decoded[i], subops[i]) << "round " << round;
    }
  }
}

TEST(WireFuzzTest, ZeroCountBatchEnvelopeIsValidAndEmpty) {
  // An empty batch is legal on the wire (clients may flush an empty queue);
  // handlers answer it with an empty response envelope, not an error.  Any
  // byte beyond the count word, however, disagrees with count=0 and rejects.
  const std::string req = EncodeBatchRequest({});
  ASSERT_EQ(req.size(), 4u);
  std::vector<std::string_view> reqs{std::string_view("stale")};
  EXPECT_TRUE(DecodeBatchRequest(req, &reqs));
  EXPECT_TRUE(reqs.empty());

  const std::string resp = EncodeBatchResponse({});
  std::vector<BatchItem> items{BatchItem{ErrCode::kNotFound, "stale"}};
  EXPECT_TRUE(DecodeBatchResponse(resp, &items));
  EXPECT_TRUE(items.empty());

  EXPECT_FALSE(DecodeBatchRequest(req + std::string(1, '\0'), &reqs));
  EXPECT_FALSE(DecodeBatchResponse(resp + std::string(1, '\0'), &items));
}

TEST(WireFuzzTest, BatchCountLengthDisagreementNeverOverReads) {
  // Seed-driven sweep: take a well-formed envelope and corrupt the count
  // word to every nearby value; only the true count may decode, and every
  // accepted view must stay inside the buffer.
  common::Rng rng(0xD15A);
  std::vector<std::string> subops;
  for (int i = 0; i < 4; ++i) subops.push_back(RandomPayload(rng, 48));
  const std::string good = EncodeBatchRequest(subops);
  for (std::uint32_t count = 0; count < 12; ++count) {
    std::string bytes = good;
    bytes[0] = static_cast<char>(count & 0xFF);
    bytes[1] = static_cast<char>((count >> 8) & 0xFF);
    bytes[2] = 0;
    bytes[3] = 0;
    std::vector<std::string_view> decoded;
    const bool ok = DecodeBatchRequest(bytes, &decoded);
    if (count == subops.size()) {
      EXPECT_TRUE(ok);
    } else {
      EXPECT_FALSE(ok) << "count " << count;
    }
  }
}

TEST(WireFuzzTest, BatchCountBeyondPayloadRejectsWithoutAllocating) {
  // count = 0x7FFFFFFF with only a handful of bytes behind it: the decoder
  // must reject from the count/size comparison alone — reserving for it
  // would allocate gigabytes before the first item bound check.
  std::string hostile(8, '\0');
  hostile[0] = '\xff';
  hostile[1] = '\xff';
  hostile[2] = '\xff';
  hostile[3] = '\x7f';
  std::vector<std::string_view> reqs;
  EXPECT_FALSE(DecodeBatchRequest(hostile, &reqs));
  std::vector<BatchItem> items;
  EXPECT_FALSE(DecodeBatchResponse(hostile, &items));

  // Same with a sub-op length field pointing past the end.
  std::string bad_len = EncodeBatchRequest({"abc"});
  bad_len[4] = '\x7f';  // item 0 length low byte: 3 -> 127
  EXPECT_FALSE(DecodeBatchRequest(bad_len, &reqs));
}

TEST(WireFuzzTest, TruncatedAndOversizedBatchEnvelopesReject) {
  common::Rng rng(0x5EED);
  std::vector<std::string> subops;
  for (int i = 0; i < 5; ++i) subops.push_back(RandomPayload(rng, 64));
  const std::string good = EncodeBatchRequest(subops);
  std::vector<std::string_view> decoded;
  ASSERT_TRUE(DecodeBatchRequest(good, &decoded));

  // Every proper prefix disagrees with its own count and must be rejected
  // (the frame layer guarantees whole payloads, so a short envelope is
  // corruption, not "wait for more").
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeBatchRequest(good.substr(0, cut), &decoded))
        << "cut " << cut;
  }
  // Trailing bytes beyond the declared items are equally malformed.
  EXPECT_FALSE(DecodeBatchRequest(good + "x", &decoded));

  // Response side: same contract, plus the status byte domain check.
  std::vector<BatchItem> reply;
  reply.push_back(BatchItem{ErrCode::kOk, "payload"});
  reply.push_back(BatchItem{ErrCode::kNotFound, ""});
  const std::string resp = EncodeBatchResponse(reply);
  std::vector<BatchItem> out;
  ASSERT_TRUE(DecodeBatchResponse(resp, &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, "payload");
  for (std::size_t cut = 0; cut < resp.size(); ++cut) {
    EXPECT_FALSE(DecodeBatchResponse(resp.substr(0, cut), &out))
        << "cut " << cut;
  }
  EXPECT_FALSE(DecodeBatchResponse(resp + "x", &out));
  std::string bad_code = resp;
  bad_code[4] = '\x63';  // item 0 status byte: far outside the ErrCode domain
  EXPECT_FALSE(DecodeBatchResponse(bad_code, &out));
}

TEST(WireFuzzTest, RandomBytesNeverCrashBatchDecoders) {
  common::Rng rng(0xFA22);
  int accepted = 0;
  for (int round = 0; round < 500; ++round) {
    const std::string garbage = RandomPayload(rng, 256);
    std::vector<std::string_view> reqs;
    if (DecodeBatchRequest(garbage, &reqs)) {
      // Acceptance is only legal when every view stays inside the buffer.
      ++accepted;
      for (std::string_view v : reqs) {
        EXPECT_GE(v.data(), garbage.data());
        EXPECT_LE(v.data() + v.size(), garbage.data() + garbage.size());
      }
    }
    std::vector<BatchItem> items;
    (void)DecodeBatchResponse(garbage, &items);
  }
  // Random bytes occasionally form a consistent envelope (e.g. count 0 on a
  // 4-byte payload); the point is no crash and no over-read above.
  (void)accepted;
}

}  // namespace
}  // namespace loco::net::wire
