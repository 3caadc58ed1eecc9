// Wire-format robustness: framing roundtrips, truncated/corrupt streams, and
// hostile length fields must all surface as clean errors (never hangs or UB).
// Every stream case runs on wire::PinnedFrameReader, the one frame reader.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "support/pinned_feed.h"

namespace loco::net::wire {
namespace {

FrameHeader RequestHeader(std::uint16_t opcode, std::uint64_t request_id,
                          std::uint64_t trace_id) {
  FrameHeader h;
  h.type = FrameType::kRequest;
  h.opcode = opcode;
  h.request_id = request_id;
  h.trace_id = trace_id;
  return h;
}

TEST(WireTest, EncodeDecodeRoundtrip) {
  const std::string payload = "hello payload";
  const std::string bytes = EncodeFrame(RequestHeader(42, 7, 99), payload);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());

  FrameHeader decoded;
  ASSERT_TRUE(DecodeHeader(bytes, &decoded).ok());
  EXPECT_EQ(decoded.type, FrameType::kRequest);
  EXPECT_EQ(decoded.opcode, 42);
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.trace_id, 99u);
  EXPECT_EQ(decoded.code, ErrCode::kOk);
  EXPECT_EQ(decoded.payload_len, payload.size());
}

TEST(WireTest, ResponseCarriesErrorCode) {
  FrameHeader h;
  h.type = FrameType::kResponse;
  h.opcode = 3;
  h.request_id = 1;
  h.code = ErrCode::kNotFound;
  const std::string bytes = EncodeFrame(h, "");

  PinnedFrameReader reader;
  FeedPinned(reader, bytes, bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.code, ErrCode::kNotFound);
  EXPECT_EQ(frame->header.type, FrameType::kResponse);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireTest, DecodeRejectsBadMagic) {
  std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "");
  bytes[0] ^= 0xFF;
  FrameHeader h;
  EXPECT_EQ(DecodeHeader(bytes, &h).code(), ErrCode::kCorruption);
}

TEST(WireTest, DecodeRejectsBadVersion) {
  // One frame version: every other version byte, older or newer, is
  // refused.
  for (const int version : {1, 2, kVersion + 1}) {
    std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "");
    bytes[4] = char(version);
    FrameHeader h;
    EXPECT_EQ(DecodeHeader(bytes, &h).code(), ErrCode::kCorruption)
        << "version " << version;
  }
}

TEST(WireTest, DecodeRejectsBadType) {
  std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "");
  bytes[5] = 9;
  FrameHeader h;
  EXPECT_EQ(DecodeHeader(bytes, &h).code(), ErrCode::kCorruption);
}

TEST(WireTest, DecodeRejectsOutOfRangeErrCode) {
  std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "");
  bytes[24] = char(0x7F);  // far past kUnsupported
  FrameHeader h;
  EXPECT_EQ(DecodeHeader(bytes, &h).code(), ErrCode::kCorruption);
}

TEST(WireTest, ReaderWaitsOnTruncatedHeader) {
  const std::string bytes = EncodeFrame(RequestHeader(5, 2, 3), "abc");
  PinnedFrameReader reader;
  FeedPinned(reader, std::string_view(bytes).substr(0, kHeaderBytes - 1),
             bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.status().ok());  // incomplete, not corrupt

  FeedPinned(reader, std::string_view(bytes).substr(kHeaderBytes - 1),
             bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "abc");
}

TEST(WireTest, ReaderWaitsOnTruncatedPayload) {
  const std::string bytes = EncodeFrame(RequestHeader(5, 2, 3), "abcdef");
  PinnedFrameReader reader;
  FeedPinned(reader, std::string_view(bytes).substr(0, bytes.size() - 2),
             bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.buffered(), bytes.size() - 2);

  FeedPinned(reader, std::string_view(bytes).substr(bytes.size() - 2),
             bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "abcdef");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderFeedByteAtATime) {
  const std::string bytes =
      EncodeFrame(RequestHeader(64, 77, 88), std::string(100, 'x'));
  PinnedFrameReader reader;
  for (std::size_t i = 0; i < bytes.size() - 1; ++i) {
    FeedPinned(reader, std::string_view(&bytes[i], 1), 1);
    EXPECT_FALSE(reader.Next().has_value());
    ASSERT_TRUE(reader.status().ok());
  }
  FeedPinned(reader, std::string_view(&bytes[bytes.size() - 1], 1), 1);
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.opcode, 64);
  EXPECT_EQ(frame->payload.size(), 100u);
}

TEST(WireTest, ReaderExtractsBackToBackFrames) {
  const std::string bytes = EncodeFrame(RequestHeader(1, 1, 9), "one") +
                            EncodeFrame(RequestHeader(2, 2, 9), "two") +
                            EncodeFrame(RequestHeader(3, 3, 9), "three");
  PinnedFrameReader reader;
  FeedPinned(reader, bytes, bytes.size());
  auto a = reader.Next();
  auto b = reader.Next();
  auto c = reader.Next();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->payload, "one");
  EXPECT_EQ(b->payload, "two");
  EXPECT_EQ(c->payload, "three");
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, OversizedPayloadLengthLatchesCorruption) {
  // A hostile length field must fail fast, not allocate 4 GiB or wait for
  // bytes that will never come.
  FrameHeader h = RequestHeader(1, 1, 1);
  std::string bytes = EncodeFrame(h, "");
  // Patch payload_len (offset 25, little-endian u32) to max.
  bytes[25] = char(0xFF);
  bytes[26] = char(0xFF);
  bytes[27] = char(0xFF);
  bytes[28] = char(0xFF);

  PinnedFrameReader reader(/*max_payload=*/1024);
  FeedPinned(reader, bytes, bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
  // Latched: even feeding valid frames afterwards yields nothing.
  const std::string good = EncodeFrame(RequestHeader(2, 2, 2), "ok");
  FeedPinned(reader, good, good.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
}

TEST(WireTest, CorruptHeaderMidStreamLatches) {
  PinnedFrameReader reader;
  const std::string good_frame = EncodeFrame(RequestHeader(1, 1, 1), "good");
  FeedPinned(reader, good_frame, good_frame.size());
  std::string bad = EncodeFrame(RequestHeader(2, 2, 2), "bad");
  bad[0] ^= 0xFF;
  FeedPinned(reader, bad, bad.size());

  auto good = reader.Next();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->payload, "good");
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
}

TEST(WireTest, EmptyPayloadRoundtrip) {
  PinnedFrameReader reader;
  const std::string bytes = EncodeFrame(RequestHeader(10, 1, 0), "");
  FeedPinned(reader, bytes, bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
  EXPECT_EQ(frame->header.payload_len, 0u);
}

// ---------------------------------------------------------------------------
// PinnedFrameReader arena behaviour: in-place payloads, chunk straddlers and
// pins that outlive the reader.
// ---------------------------------------------------------------------------

TEST(PinnedReaderTest, SingleFrameServedInPlace) {
  PinnedFrameReader reader;
  const std::string bytes = EncodeFrame(RequestHeader(42, 7, 99), "payload");
  FeedPinned(reader, bytes, bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.opcode, 42);
  EXPECT_EQ(frame->payload, "payload");
  EXPECT_TRUE(frame->zero_copy);
  EXPECT_EQ(reader.zero_copy_frames(), 1u);
  EXPECT_EQ(reader.assembled_frames(), 0u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(PinnedReaderTest, ByteAtATimeDeliveryStillDecodes) {
  PinnedFrameReader reader;
  const std::string bytes =
      EncodeFrame(RequestHeader(64, 77, 88), std::string(100, 'x'));
  FeedPinned(reader, std::string_view(bytes).substr(0, bytes.size() - 1), 1);
  EXPECT_FALSE(reader.Next().has_value());
  ASSERT_TRUE(reader.status().ok());
  FeedPinned(reader, std::string_view(bytes).substr(bytes.size() - 1), 1);
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.opcode, 64);
  EXPECT_EQ(frame->payload, std::string(100, 'x'));
}

TEST(PinnedReaderTest, FrameStraddlingChunksIsAssembledOnce) {
  // A 1 KiB chunk size forces the second frame's payload across a chunk
  // boundary; it must still decode byte-exactly, flagged as assembled.
  PinnedFrameReader reader(kMaxPayloadBytes, /*chunk_bytes=*/1024);
  std::string big(3 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('A' + (i % 17));
  }
  const std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "small") +
                            EncodeFrame(RequestHeader(2, 2, 2), big);
  FeedPinned(reader, bytes, 300);
  auto small = reader.Next();
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->payload, "small");
  auto straddler = reader.Next();
  ASSERT_TRUE(straddler.has_value());
  EXPECT_EQ(straddler->payload, big);
  EXPECT_FALSE(straddler->zero_copy);
  EXPECT_GE(reader.assembled_frames(), 1u);
}

TEST(PinnedReaderTest, PinKeepsPayloadAliveAfterReaderMovesOn) {
  // The worker-pool contract: a handler may hold the frame long after the
  // reader has decoded (and recycled chunks for) later frames.
  auto reader = std::make_unique<PinnedFrameReader>(
      kMaxPayloadBytes, /*chunk_bytes=*/1024);
  const std::string first_payload(600, 'p');
  const std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), first_payload);
  FeedPinned(*reader, bytes, bytes.size());
  auto held = reader->Next();
  ASSERT_TRUE(held.has_value());

  // Push enough traffic through to rotate the arena several times over.
  for (int i = 0; i < 16; ++i) {
    const std::string f =
        EncodeFrame(RequestHeader(2, static_cast<std::uint64_t>(i), 2),
                    std::string(700, static_cast<char>('a' + i)));
    FeedPinned(*reader, f, 256);
    auto got = reader->Next();
    ASSERT_TRUE(got.has_value());
  }
  reader.reset();  // even destroying the reader must not free pinned bytes
  EXPECT_EQ(held->payload, first_payload);
}

TEST(PinnedReaderTest, ShortDeliveriesAcrossSmallChunks) {
  // Many short deliveries into small chunks: the header of the second frame
  // and its payload both cross chunk boundaries.
  PinnedFrameReader reader(kMaxPayloadBytes, /*chunk_bytes=*/512);
  const std::string bytes = EncodeFrame(RequestHeader(9, 5, 3), "short-reads") +
                            EncodeFrame(RequestHeader(10, 6, 3),
                                        std::string(900, 'q'));
  FeedPinned(reader, bytes, 128);
  auto a = reader.Next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, "short-reads");
  auto b = reader.Next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload, std::string(900, 'q'));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(PinnedReaderTest, OversizedPayloadLatchesCorruption) {
  PinnedFrameReader reader(/*max_payload=*/1024);
  std::string bytes = EncodeFrame(RequestHeader(1, 1, 1), "");
  bytes[25] = char(0xFF);
  bytes[26] = char(0xFF);
  bytes[27] = char(0xFF);
  bytes[28] = char(0xFF);
  FeedPinned(reader, bytes, bytes.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
  const std::string good = EncodeFrame(RequestHeader(2, 2, 2), "ok");
  FeedPinned(reader, good, good.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
}

TEST(PinnedReaderTest, BadMagicMidStreamLatches) {
  PinnedFrameReader reader;
  const std::string good = EncodeFrame(RequestHeader(1, 1, 1), "good");
  std::string bad = EncodeFrame(RequestHeader(2, 2, 2), "bad");
  bad[0] ^= 0xFF;
  FeedPinned(reader, good + bad, 64);
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "good");
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.status().code(), ErrCode::kCorruption);
}

TEST(PinnedReaderTest, EmptyPayloadAndBackToBackFrames) {
  PinnedFrameReader reader;
  const std::string bytes = EncodeFrame(RequestHeader(10, 1, 0), "") +
                            EncodeFrame(RequestHeader(11, 2, 0), "two") +
                            EncodeFrame(RequestHeader(12, 3, 0), "three");
  FeedPinned(reader, bytes, bytes.size());
  auto a = reader.Next();
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->payload.empty());
  auto b = reader.Next();
  auto c = reader.Next();
  ASSERT_TRUE(b && c);
  EXPECT_EQ(b->payload, "two");
  EXPECT_EQ(c->payload, "three");
  EXPECT_EQ(reader.buffered(), 0u);
}

}  // namespace
}  // namespace loco::net::wire
