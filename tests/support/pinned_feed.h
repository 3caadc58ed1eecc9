// Feeds bytes to a wire::PinnedFrameReader through its RecvInto/Commit
// receive path, the way a socket receiver does.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string_view>

#include "net/wire.h"

namespace loco::net::wire {

// Push `bytes` into `reader` in deliveries of at most `step` bytes,
// mimicking short recv() returns.
inline void FeedPinned(PinnedFrameReader& reader, std::string_view bytes,
                       std::size_t step) {
  while (!bytes.empty()) {
    std::size_t capacity = 0;
    char* dst = reader.RecvInto(/*min_bytes=*/1, &capacity);
    ASSERT_NE(dst, nullptr);
    ASSERT_GT(capacity, 0u);
    const std::size_t n = std::min({bytes.size(), step, capacity});
    std::memcpy(dst, bytes.data(), n);
    reader.Commit(n);
    bytes.remove_prefix(n);
  }
}

}  // namespace loco::net::wire
