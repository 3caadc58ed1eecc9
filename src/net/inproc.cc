#include "net/inproc.h"

namespace loco::net {

void InProcTransport::Register(NodeId id, RpcHandler* handler) {
  auto& server = servers_[id];
  if (!server) server = std::make_unique<Server>();
  server->handler = handler;
}

void InProcTransport::CallAsync(NodeId server, std::uint16_t opcode,
                                std::string payload,
                                std::function<void(RpcResponse)> done) {
  const common::RpcMetricsTable::PerOp& m = metrics_.For(opcode);
  m.calls->Add();
  m.bytes_sent->Add(payload.size());
  const common::CpuTimer timer;
  const auto it = servers_.find(server);
  if (it == servers_.end() || it->second->handler == nullptr) {
    m.errors->Add();
    m.latency->Record(timer.ElapsedNanos());
    done(RpcResponse{ErrCode::kUnavailable, {}});
    return;
  }
  it->second->calls.fetch_add(1, std::memory_order_relaxed);
  RpcResponse resp = it->second->handler->Handle(opcode, payload);
  if (resp.code != ErrCode::kOk) m.errors->Add();
  m.bytes_received->Add(resp.payload.size());
  m.latency->Record(timer.ElapsedNanos());
  done(std::move(resp));
}

std::uint64_t InProcTransport::CallCount(NodeId server) const {
  const auto it = servers_.find(server);
  return it == servers_.end() ? 0 : it->second->calls.load(std::memory_order_relaxed);
}

}  // namespace loco::net
