// In-process transport: executes handlers on the calling thread.
//
// This is the "real" (non-simulated) deployment of the services, used by the
// examples and the multi-threaded integration tests.  Each registered server
// is protected by its own mutex, so concurrent client threads serialize per
// server, one request at a time.  The LocoFS services would not need it
// (they are thread-safe, and run behind a multi-worker TcpServer); the
// baseline services have no locking of their own.  An optional injected
// round-trip latency emulates a LAN for tests that want wall-clock realism.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/clock.h"
#include "common/metrics.h"
#include "net/rpc.h"

namespace loco::net {

class InProcTransport final : public Channel {
 public:
  InProcTransport() = default;

  // Register (or replace) the handler serving `id`.  Not thread-safe against
  // concurrent calls; perform all registrations before serving traffic.
  void Register(NodeId id, RpcHandler* handler);

  // Inject a real round-trip latency (nanoseconds) on every call.
  void SetRoundTripLatency(common::Nanos rtt) { rtt_.store(rtt); }

  void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                 std::function<void(RpcResponse)> done) override;

  // Total calls dispatched to `server` so far.
  std::uint64_t CallCount(NodeId server) const;

 private:
  struct Server {
    RpcHandler* handler = nullptr;
    std::mutex mu;
    std::atomic<std::uint64_t> calls{0};
  };

  std::unordered_map<NodeId, std::unique_ptr<Server>> servers_;
  std::atomic<common::Nanos> rtt_{0};
  // Per-opcode RPC metrics, measured in wall-clock time (this transport runs
  // handlers inline on real threads).
  common::RpcMetricsTable metrics_{&common::MetricsRegistry::Default(),
                                   "inproc", "wall_ns"};
};

}  // namespace loco::net
