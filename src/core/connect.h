// The one way a process connects to a running LocoFS cluster.
//
// Every client binary (loco_shell, the benches, loco_fsck, the integration
// tests) used to assemble the same stack by hand: parse a --connect spec,
// build a TcpChannel, register node ids, wrap a ResilientChannel, and thread
// a LocoClient::Config around.  core::Connect() collapses that into one call:
//
//   auto opts = core::ClientOptions::FromSpec(
//       "dms=127.0.0.1:9000,fms=127.0.0.1:9001,osd=127.0.0.1:9100");
//   auto mount = core::Connect(std::move(*opts));
//   auto client = mount->MakeClient(now_fn);
//
// The MountHandle owns the whole client-side stack:
//   * the TcpChannel with every daemon registered under the canonical node
//     ids (dms shard 0 = 0, shard i >= 1 = 900+i; fms = 1..N in spec order —
//     match each daemon's --sid — object stores = 1000+i);
//   * the optional ResilientChannel (retry + circuit breakers);
//   * the notify plane: one NotifyListener per DMS shard on a dedicated
//     connection, all feeding the shared NotifyFanout that routes pushes
//     into every LocoClient made from this mount (lease invalidation in
//     ~1 RTT instead of the lease timeout) and breaker gossip into the
//     ResilientChannel.
// Each mount gets a process-unique client id; the DMS uses it to address
// pushes and to exempt the mutating mount from its own invalidations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/client.h"
#include "net/notify.h"
#include "net/resilience.h"
#include "net/tcp.h"

namespace loco::core {

struct ClientOptions {
  // Daemon addresses, each "host:port".  At least one DMS shard, one FMS
  // and one object store.  DMS order is the shard order (docs/SHARDING.md):
  // placement is positional, so every client and tool connecting to one
  // cluster must list the shards identically.
  std::vector<std::string> dms;
  std::vector<std::string> fms;
  std::vector<std::string> object_stores;

  // LocoFS-C vs LocoFS-NC (the lease term is proto::kLeaseNs).
  bool cache_enabled = true;

  // Transport tuning.  channel.call_deadline_ns is the mount's one
  // deadline: with resilience on it bounds all attempts of a call together.
  net::TcpChannelOptions channel;

  // Retry with backoff + per-endpoint circuit breakers (net/resilience.h),
  // the mount's only retry layer.  Safe by default because the daemons
  // deduplicate idempotent mutations server-side (net::DedupWindow).
  bool resilience = true;

  // Server-push plane (net/notify.h): lease invalidation + breaker gossip on
  // a dedicated connection to the DMS.  While the stream is down (or a
  // server refuses it) the listener redials with backoff and leases alone
  // bound staleness.
  bool notify = true;

  // Parse a `--connect` spec into the endpoint fields (everything else keeps
  // its default): comma-separated `role=host:port` entries with roles
  // dms / fms / osd in any order.  Repeating `dms=` declares DMS shards in
  // shard order, e.g.
  //   dms=127.0.0.1:9000,dms=127.0.0.1:9010,fms=127.0.0.1:9001,osd=127.0.0.1:9100
  static Result<ClientOptions> FromSpec(std::string_view spec);
};

// A mounted client-side view of a remote deployment.  Movable; destroying it
// stops the notify listener and closes every connection.  LocoClients made
// from it must not outlive it.
struct MountHandle {
  std::unique_ptr<net::TcpChannel> channel;
  // Present when ClientOptions::resilience; wraps *channel.
  std::unique_ptr<net::ResilientChannel> resilient;
  // Present when ClientOptions::notify; routes pushes into fanout and
  // breaker gossip into resilient.  One listener per DMS shard, in shard
  // order — every shard pushes invalidations for the directories it owns.
  std::shared_ptr<NotifyFanout> fanout;
  std::vector<std::unique_ptr<net::NotifyListener>> listeners;
  // Config template for MakeClient (node ids, cache policy, fanout).
  LocoClient::Config config;
  // This mount's identity on the wire.
  std::uint64_t client_id = 0;

  // The channel clients should issue calls on (the resilient wrapper when
  // enabled, the bare TCP channel otherwise).
  net::Channel& rpc() const noexcept {
    return resilient ? static_cast<net::Channel&>(*resilient)
                     : static_cast<net::Channel&>(*channel);
  }

  // Build a client-process library over rpc() (one per logical client;
  // `now` supplies operation timestamps, e.g. wall-clock nanoseconds).
  std::unique_ptr<fs::FileSystemClient> MakeClient(fs::TimeFn now) const;
};

Result<MountHandle> Connect(const ClientOptions& options);

}  // namespace loco::core
