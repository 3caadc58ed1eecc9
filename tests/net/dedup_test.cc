// net::DedupWindow: exact-once replay window keyed on exact request bytes.
//
// The regression of record: the window used to key on a 64-bit hash of
// (trace_id, opcode, payload).  A hash collision between two *different*
// requests would replay the first request's cached response as the answer
// to the second — a silent cross-request data leak.  The key is now the
// literal (trace_id, opcode, payload) byte string, so two distinct requests
// cannot share a key by construction.  These tests pin that contract.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/dedup.h"

namespace loco::net {
namespace {

wire::FrameHeader Header(std::uint16_t opcode, std::uint64_t trace_id) {
  wire::FrameHeader h;
  h.type = wire::FrameType::kRequest;
  h.opcode = opcode;
  h.request_id = trace_id + 1;  // request ids never participate in the key
  h.trace_id = trace_id;
  return h;
}

TEST(DedupWindowTest, KeyIsExactBytesNotAHash) {
  // Distinct payloads (same trace id and opcode) must yield distinct keys —
  // for every pair, not just probabilistically.  With an exact-byte key the
  // key *is* the identifying tuple, so equality of keys implies equality of
  // requests.
  const wire::FrameHeader h = Header(7, 42);
  const std::string a = DedupWindow::Key(h, "payload-A");
  const std::string b = DedupWindow::Key(h, "payload-B");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DedupWindow::Key(h, "payload-A"));

  // Trace id and opcode are part of the identity too.
  EXPECT_NE(DedupWindow::Key(Header(7, 42), "x"),
            DedupWindow::Key(Header(7, 43), "x"));
  EXPECT_NE(DedupWindow::Key(Header(7, 42), "x"),
            DedupWindow::Key(Header(8, 42), "x"));
}

TEST(DedupWindowTest, KeyIsInjectiveAcrossFieldBoundaries) {
  // The encoding must be prefix-unambiguous: the fixed-width (trace, opcode)
  // prefix means payload bytes can never masquerade as header fields.
  const std::string k1 = DedupWindow::Key(Header(0x0102, 1), "");
  std::string payload(10, '\0');
  const std::string k2 = DedupWindow::Key(Header(0, 0), payload);
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1.size(), 10u);
  EXPECT_EQ(k2.size(), 20u);
}

TEST(DedupWindowTest, DifferentRequestsNeverReplayEachOther) {
  // Regression: under the old hashed key a collision could hand request B
  // the cached response of request A.  Execute many distinct requests that
  // agree on everything except payload; none may see a replay.
  DedupWindow window({7});
  const std::uint64_t trace = 99;
  for (int i = 0; i < 1000; ++i) {
    const std::string payload = "op-" + std::to_string(i);
    const std::string key = DedupWindow::Key(Header(7, trace), payload);
    ErrCode code = ErrCode::kOk;
    std::string cached;
    DedupWindow::Slot slot = nullptr;
    ASSERT_EQ(window.Begin(key, &code, &cached, &slot),
              DedupWindow::Outcome::kExecute)
        << "request " << i << " replayed a different request's response";
    window.Complete(slot, ErrCode::kOk, payload);
  }
  EXPECT_EQ(window.replays(), 0u);
}

TEST(DedupWindowTest, RetryReplaysCachedResponse) {
  DedupWindow window({7});
  const std::string key = DedupWindow::Key(Header(7, 5), "mutate");
  ErrCode code = ErrCode::kOk;
  std::string cached;
  DedupWindow::Slot slot = nullptr;
  ASSERT_EQ(window.Begin(key, &code, &cached, &slot),
            DedupWindow::Outcome::kExecute);
  window.Complete(slot, ErrCode::kExists, "original-response");

  ASSERT_EQ(window.Begin(key, &code, &cached, &slot),
            DedupWindow::Outcome::kReplay);
  EXPECT_EQ(code, ErrCode::kExists);
  EXPECT_EQ(cached, "original-response");
}

TEST(DedupWindowTest, EligibilityFiltersOpcodes) {
  DedupWindow window({1, 2});
  EXPECT_TRUE(window.Eligible(1));
  EXPECT_TRUE(window.Eligible(2));
  EXPECT_FALSE(window.Eligible(3));
}

TEST(DedupWindowTest, EvictionForgetsOldEntries) {
  DedupWindow window({7});
  auto run = [&](int i) {
    const std::string key =
        DedupWindow::Key(Header(7, static_cast<std::uint64_t>(i)), "p");
    ErrCode code = ErrCode::kOk;
    std::string cached;
    DedupWindow::Slot slot = nullptr;
    const auto outcome = window.Begin(key, &code, &cached, &slot);
    if (outcome == DedupWindow::Outcome::kExecute) {
      window.Complete(slot, ErrCode::kOk, "r");
    }
    return outcome;
  };
  constexpr int kKeys = static_cast<int>(DedupWindow::kCapacity) + 1;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(run(i), DedupWindow::Outcome::kExecute);
  }
  // The oldest entry fell out of the window: re-running it executes again
  // (the window is a best-effort bound, not a permanent log).
  EXPECT_EQ(run(0), DedupWindow::Outcome::kExecute);
  // The newest is still cached.
  EXPECT_EQ(run(kKeys - 1), DedupWindow::Outcome::kReplay);
}

TEST(DedupWindowTest, EvictionOrderSurvivesRehash) {
  // The eviction queue refers to the map's own keys; filling the window
  // rehashes the map several times, and the FIFO order must come through
  // intact.
  DedupWindow window({7});
  constexpr int kCapacity = static_cast<int>(DedupWindow::kCapacity);
  constexpr int kEvicted = kCapacity / 4;
  constexpr int kKeys = kCapacity + kEvicted;
  auto run = [&](int i) {
    const std::string key = DedupWindow::Key(
        Header(7, static_cast<std::uint64_t>(i)), "payload-" + std::to_string(i));
    ErrCode code = ErrCode::kOk;
    std::string cached;
    DedupWindow::Slot slot = nullptr;
    const auto outcome = window.Begin(key, &code, &cached, &slot);
    if (outcome == DedupWindow::Outcome::kExecute) {
      window.Complete(slot, ErrCode::kOk, "r" + std::to_string(i));
    } else {
      EXPECT_EQ(cached, "r" + std::to_string(i));
    }
    return outcome;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(run(i), DedupWindow::Outcome::kExecute) << i;
  }
  // The newest kCapacity replay their own responses (a replay inserts
  // nothing).
  for (int i = kEvicted; i < kKeys; ++i) {
    ASSERT_EQ(run(i), DedupWindow::Outcome::kReplay) << i;
  }
  // The oldest kEvicted were evicted and execute again.
  for (int i = 0; i < kEvicted; ++i) {
    ASSERT_EQ(run(i), DedupWindow::Outcome::kExecute) << i;
  }
  EXPECT_EQ(run(kKeys - 1), DedupWindow::Outcome::kReplay);
}

TEST(DedupWindowTest, ConcurrentDuplicateWaitsForOwner) {
  DedupWindow window({7});
  const std::string key = DedupWindow::Key(Header(7, 77), "racy");
  ErrCode code = ErrCode::kOk;
  std::string cached;
  DedupWindow::Slot slot = nullptr;
  ASSERT_EQ(window.Begin(key, &code, &cached, &slot),
            DedupWindow::Outcome::kExecute);

  std::thread dup([&] {
    ErrCode dup_code = ErrCode::kOk;
    std::string dup_cached;
    DedupWindow::Slot dup_slot = nullptr;
    // Blocks until the owner completes, then replays — never re-executes.
    EXPECT_EQ(window.Begin(key, &dup_code, &dup_cached, &dup_slot),
              DedupWindow::Outcome::kReplay);
    EXPECT_EQ(dup_cached, "owner-result");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  window.Complete(slot, ErrCode::kOk, "owner-result");
  dup.join();
}

TEST(DedupWindowTest, NonWaitingBeginReportsARunningOriginal) {
  // The event loop asks without waiting: a duplicate of an in-flight key is
  // told the original is running, gets no entry of its own and no replay,
  // and replays the owner's response once the owner has completed.
  DedupWindow window({7});
  const std::string key = DedupWindow::Key(Header(7, 78), "in-flight");
  ErrCode code = ErrCode::kOk;
  std::string cached;
  DedupWindow::Slot slot = nullptr;
  ASSERT_EQ(window.Begin(key, &code, &cached, &slot, DedupWindow::Wait::kNo),
            DedupWindow::Outcome::kExecute)
      << "a fresh key is claimed without waiting too";
  ASSERT_NE(slot, nullptr);

  ErrCode dup_code = ErrCode::kOk;
  std::string dup_cached = "untouched";
  DedupWindow::Slot dup_slot = nullptr;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(window.Begin(key, &dup_code, &dup_cached, &dup_slot,
                           DedupWindow::Wait::kNo),
              DedupWindow::Outcome::kRunning);
  }
  EXPECT_EQ(dup_slot, nullptr);
  EXPECT_EQ(dup_cached, "untouched");
  EXPECT_EQ(window.replays(), 0u);

  window.Complete(slot, ErrCode::kExists, "owner-result");
  EXPECT_EQ(window.Begin(key, &dup_code, &dup_cached, &dup_slot,
                         DedupWindow::Wait::kNo),
            DedupWindow::Outcome::kReplay);
  EXPECT_EQ(dup_code, ErrCode::kExists);
  EXPECT_EQ(dup_cached, "owner-result");
  EXPECT_EQ(dup_slot, nullptr);
  EXPECT_EQ(window.replays(), 1u);

  // The kRunning probes left nothing behind: once kCapacity newer requests
  // complete after the owner's, its entry is evicted and the key executes
  // anew.
  DedupWindow fresh({7});
  ASSERT_EQ(fresh.Begin(key, &code, &cached, &slot, DedupWindow::Wait::kNo),
            DedupWindow::Outcome::kExecute);
  EXPECT_EQ(fresh.Begin(key, &dup_code, &dup_cached, &dup_slot,
                        DedupWindow::Wait::kNo),
            DedupWindow::Outcome::kRunning);
  fresh.Complete(slot, ErrCode::kOk, "first");
  for (std::uint64_t i = 0; i < DedupWindow::kCapacity; ++i) {
    const std::string other = DedupWindow::Key(Header(7, 1000 + i), "other");
    ASSERT_EQ(fresh.Begin(other, &code, &cached, &slot),
              DedupWindow::Outcome::kExecute);
    fresh.Complete(slot, ErrCode::kOk, "newer");
  }
  EXPECT_EQ(fresh.Begin(key, &code, &cached, &slot, DedupWindow::Wait::kNo),
            DedupWindow::Outcome::kExecute);
}

}  // namespace
}  // namespace loco::net
