#include "net/rpc.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace loco::net {

std::uint64_t NextTraceId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Channel::CallAsyncMeta(NodeId server, std::uint16_t opcode,
                            std::string payload, const CallMeta& meta,
                            std::function<void(RpcResponse)> done) {
  (void)meta;  // transports without a wire representation drop the metadata
  CallAsync(server, opcode, std::move(payload), std::move(done));
}

void Channel::FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                          std::function<void(std::vector<RpcResponse>)> done) {
  // Issue sequentially, collect in order.  Correct for any transport,
  // including ones that complete inside the per-leg call.
  struct State {
    std::vector<RpcResponse> responses;
    std::size_t pending = 0;
    std::function<void(std::vector<RpcResponse>)> done;
  };
  auto state = std::make_shared<State>();
  state->responses.resize(legs.size());
  state->pending = legs.size();
  state->done = std::move(done);
  if (legs.empty()) {
    state->done(std::move(state->responses));
    return;
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    CallAsyncMeta(legs[i].server, legs[i].opcode, std::move(legs[i].payload),
                  meta, [state, i](RpcResponse resp) {
                    state->responses[i] = std::move(resp);
                    if (--state->pending == 0) {
                      state->done(std::move(state->responses));
                    }
                  });
  }
}

RpcResponse CallBlocking(Channel& channel, NodeId server, std::uint16_t opcode,
                         std::string payload, CallMeta meta) {
  if (meta.trace_id == 0) meta.trace_id = NextTraceId();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  RpcResponse out;
  channel.CallAsyncMeta(server, opcode, std::move(payload), meta,
                        [&](RpcResponse r) {
                          std::lock_guard<std::mutex> lock(mu);
                          out = std::move(r);
                          done = true;
                          cv.notify_one();
                        });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

}  // namespace loco::net
