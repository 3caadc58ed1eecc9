// In-process transport: executes handlers on the calling thread.
//
// This is the "real" (non-simulated) deployment of the services, used by the
// examples and the multi-threaded integration tests.  Calls from different
// threads run their handlers concurrently, even on one server, exactly as a
// multi-worker TcpServer runs them: the LocoFS services are thread-safe.  The
// baseline services have no locking of their own, so they are driven from
// one thread only (the simulator, tab01, single-threaded tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "net/rpc.h"

namespace loco::net {

class InProcTransport final : public Channel {
 public:
  InProcTransport() = default;

  // Register (or replace) the handler serving `id`.  Not thread-safe against
  // concurrent calls; perform all registrations before serving traffic.
  void Register(NodeId id, RpcHandler* handler);

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override;

  // Total calls dispatched to `server` so far.
  std::uint64_t CallCount(NodeId server) const;

 private:
  struct Server {
    RpcHandler* handler = nullptr;
    std::atomic<std::uint64_t> calls{0};
  };

  std::unordered_map<NodeId, std::unique_ptr<Server>> servers_;
  // Per-opcode RPC metrics, measured in wall-clock time (this transport runs
  // handlers inline on real threads).
  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "inproc", "wall_ns"};
};

}  // namespace loco::net
