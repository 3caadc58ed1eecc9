// Awaitable RPC calls over net::Channel.
//
//   RpcResponse r  = co_await Call(ch, server, opcode, payload);
//   auto responses = co_await FanOut(ch, std::move(legs));  // CallLeg each
//   auto responses = co_await CallMany(ch, servers, opcode, payload);
//
// The awaiters handle the completed-inline case (synchronous transports)
// without suspending, and the deferred case (simulator) by resuming the
// awaiting coroutine from the completion callback.
//
// Every call carries a CallMeta.  Callers that do not pass one get a fresh
// trace id stamped here, so each client-visible operation's RPCs share a
// correlation id end to end (transports that speak a wire format put it in
// the frame header; see net/wire.h).  A fan-out shares one meta — and thus
// one trace id — across every leg; CallMany is the fan-out that sends the
// same payload to every server.
#pragma once

#include <atomic>
#include <coroutine>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"

namespace loco::net {

class CallAwaiter {
 public:
  CallAwaiter(Channel& channel, NodeId server, std::uint16_t opcode,
              std::string payload, CallMeta meta = {})
      : channel_(channel),
        server_(server),
        opcode_(opcode),
        payload_(std::move(payload)),
        meta_(meta) {}

  bool await_ready() const noexcept { return false; }

  bool await_suspend(std::coroutine_handle<> h) {
    waiting_ = h;
    if (meta_.trace_id == 0) meta_.trace_id = NextTraceId();
    channel_.CallAsyncMeta(server_, opcode_, std::move(payload_), meta_,
                           [this](RpcResponse resp) {
                             response_ = std::move(resp);
                             // If the awaiting coroutine already committed to
                             // suspension, we own its resumption.
                             if (latch_.exchange(true, std::memory_order_acq_rel)) {
                               waiting_.resume();
                             }
                           });
    // If the callback already fired (inline completion), do not suspend.
    return !latch_.exchange(true, std::memory_order_acq_rel);
  }

  RpcResponse await_resume() noexcept { return std::move(response_); }

 private:
  Channel& channel_;
  NodeId server_;
  std::uint16_t opcode_;
  std::string payload_;
  CallMeta meta_;
  std::coroutine_handle<> waiting_;
  RpcResponse response_;
  std::atomic<bool> latch_{false};
};

class FanOutAwaiter {
 public:
  FanOutAwaiter(Channel& channel, std::vector<CallLeg> legs, CallMeta meta = {})
      : channel_(channel), legs_(std::move(legs)), meta_(meta) {}

  bool await_ready() const noexcept { return false; }

  bool await_suspend(std::coroutine_handle<> h) {
    waiting_ = h;
    if (meta_.trace_id == 0) meta_.trace_id = NextTraceId();
    channel_.FanOutAsync(std::move(legs_), meta_,
                         [this](std::vector<RpcResponse> resp) {
                           responses_ = std::move(resp);
                           if (latch_.exchange(true, std::memory_order_acq_rel)) {
                             waiting_.resume();
                           }
                         });
    return !latch_.exchange(true, std::memory_order_acq_rel);
  }

  std::vector<RpcResponse> await_resume() noexcept { return std::move(responses_); }

 private:
  Channel& channel_;
  std::vector<CallLeg> legs_;
  CallMeta meta_;
  std::coroutine_handle<> waiting_;
  std::vector<RpcResponse> responses_;
  std::atomic<bool> latch_{false};
};

inline CallAwaiter Call(Channel& channel, NodeId server, std::uint16_t opcode,
                        std::string payload, CallMeta meta = {}) {
  return CallAwaiter(channel, server, opcode, std::move(payload), meta);
}

inline FanOutAwaiter FanOut(Channel& channel, std::vector<CallLeg> legs,
                           CallMeta meta = {}) {
  return FanOutAwaiter(channel, std::move(legs), meta);
}

inline FanOutAwaiter CallMany(Channel& channel,
                              const std::vector<NodeId>& servers,
                              std::uint16_t opcode, std::string payload,
                              CallMeta meta = {}) {
  std::vector<CallLeg> legs;
  legs.reserve(servers.size());
  for (const NodeId server : servers) {
    legs.push_back(CallLeg{server, opcode, payload});
  }
  return FanOutAwaiter(channel, std::move(legs), meta);
}

}  // namespace loco::net
