// End-to-end notify plane over real TCP: a DMS (with push notifier), one
// FMS, and one object store on loopback, driven through core::Connect
// mounts.  Covers the remote-writer race (a push invalidates a peer's leased
// cache in ~1 RTT instead of the lease timeout), the severed-stream
// fallback (stale-allow until the lease expires, never past it), the notify
// fault plane (dropped/duplicated pushes still converge), and breaker
// gossip (a kDmsAnnounce closes a tripped circuit breaker immediately).
//
// NOTE: RemoteWriterInvalidationArrivesWithinTwoRtt must stay the first
// test in this file — it asserts against the lifetime max of the global
// client.notify.invalidation_latency histogram, which later tests also feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "fs/wire.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "net/task.h"
#include "net/tcp.h"

namespace loco {
namespace {

std::uint64_t WallNow() {
  return static_cast<std::uint64_t>(common::WallClockNs());
}

// Poll until `pred` holds or ~5 s pass.
bool Await(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class NotifyClusterTest : public ::testing::Test {
 protected:
  void StartCluster(net::FaultInjector* dms_fault = nullptr) {
    net::TcpServer::Options dms_options;
    dms_options.fault = dms_fault;
    dms_server_ = std::make_unique<net::TcpServer>(&dms_, dms_options);
    ASSERT_TRUE(dms_server_->Start().ok());
    dms_.SetNotifier(dms_server_.get());

    core::FileMetadataServer::Options fms_options;
    fms_options.sid = 1;
    fms_ = std::make_unique<core::FileMetadataServer>(fms_options);
    fms_server_ = std::make_unique<net::TcpServer>(fms_.get());
    ASSERT_TRUE(fms_server_->Start().ok());

    osd_server_ = std::make_unique<net::TcpServer>(&osd_);
    ASSERT_TRUE(osd_server_->Start().ok());
  }

  core::ClientOptions BaseOptions() const {
    core::ClientOptions options;
    options.dms = {HostPort(*dms_server_)};
    options.fms.push_back(HostPort(*fms_server_));
    options.object_stores.push_back(HostPort(*osd_server_));
    options.channel.call_deadline_ns = 2 * common::kSecond;
    return options;
  }

  static std::string HostPort(const net::TcpServer& server) {
    return server.host() + ":" + std::to_string(server.port());
  }

  // Connect a mount and build a client from it, wall-clocked unless `now`
  // says otherwise (a test moves an injected clock past the lease term).
  struct Peer {
    core::MountHandle mount;
    std::unique_ptr<fs::FileSystemClient> client;
    core::LocoClient* loco = nullptr;  // cache observability
  };
  Peer MakePeer(const core::ClientOptions& options, fs::TimeFn now = WallNow) {
    auto mount = core::Connect(options);
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    Peer peer;
    peer.mount = std::move(*mount);
    peer.client = peer.mount.MakeClient(std::move(now));
    peer.client->SetIdentity(fs::Identity{1000, 1000});
    peer.loco = static_cast<core::LocoClient*>(peer.client.get());
    return peer;
  }

  core::DirectoryMetadataServer dms_;
  std::unique_ptr<core::FileMetadataServer> fms_;
  core::ObjectStoreServer osd_;
  std::unique_ptr<net::TcpServer> dms_server_;
  std::unique_ptr<net::TcpServer> fms_server_;
  std::unique_ptr<net::TcpServer> osd_server_;
};

// The remote-writer race the push plane exists to win: writer B mutates a
// directory reader A holds a lease on, and A's cache entry dies in push
// time (~1 RTT), not lease time (30 s).
TEST_F(NotifyClusterTest, RemoteWriterInvalidationArrivesWithinTwoRtt) {
  StartCluster();
  Peer a = MakePeer(BaseOptions());
  Peer b = MakePeer(BaseOptions());
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 2; }));

  auto& registry = common::MetricsRegistry::Default();
  // Lifetime max below is only meaningful if nothing recorded before us.
  ASSERT_EQ(registry.GetHistogram("client.notify.invalidation_latency")
                .Snapshot()
                .count(),
            0u);

  // A caches /d (and the server grants A a lease on it).
  ASSERT_TRUE(net::RunInline(a.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(a.client->Create("/d/f", 0644)).ok());
  const std::size_t cached_before = a.loco->cache_size();
  ASSERT_GE(cached_before, 1u);

  // Measure a generous round trip on the warmed-up writer mount.
  std::uint64_t rtt_ns = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t t0 = WallNow();
    ASSERT_TRUE(net::RunInline(b.client->Stat("/d/f")).ok());
    rtt_ns = std::max(rtt_ns, WallNow() - t0);
  }

  const std::uint64_t pushed_before =
      registry.CounterValue("server.dms.lease.invalidations_pushed");

  // B grows /d: the DMS pushes an invalidation at A.
  ASSERT_TRUE(net::RunInline(b.client->Mkdir("/d/sub", 0755)).ok());

  ASSERT_TRUE(Await([&] {
    return registry
               .GetHistogram("client.notify.invalidation_latency")
               .Snapshot()
               .count() >= 1;
  }));
  EXPECT_GE(registry.CounterValue("server.dms.lease.invalidations_pushed"),
            pushed_before + 1);
  EXPECT_LT(a.loco->cache_size(), cached_before);

  // The push's server-stamp → client-receipt latency is the paper's
  // remote-writer window.  Target: ≤ 2×RTT on loopback; the 50 ms floor
  // only absorbs scheduler noise on loaded CI machines and is still ~600×
  // tighter than the 30 s lease the push replaces.
  const auto latency = static_cast<std::uint64_t>(
      registry.GetHistogram("client.notify.invalidation_latency")
          .Snapshot()
          .max());
  EXPECT_LE(latency, std::max<std::uint64_t>(2 * rtt_ns, 50 * common::kMilli))
      << "push latency " << latency << " ns vs rtt " << rtt_ns << " ns";
}

// When the push stream is severed the lease timeout is the correctness
// fallback: the reader keeps serving (possibly stale) cached state until
// its lease expires, and never past it.  The reader's clock is injected, so
// the test steps it across the lease term instead of sleeping through it.
TEST_F(NotifyClusterTest, SeveredStreamFallsBackToLeaseTimeout) {
  StartCluster();
  std::atomic<std::uint64_t> a_now{WallNow()};
  Peer a = MakePeer(BaseOptions(), [&a_now] { return a_now.load(); });
  Peer b = MakePeer(BaseOptions());
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 2; }));

  ASSERT_TRUE(net::RunInline(a.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(a.client->Create("/d/f1", 0644)).ok());

  // Sever A's push stream (the server-side session goes with it).
  a.mount.listeners[0]->Stop();
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 1; }));

  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t no_session_before =
      registry.CounterValue("notify.server.no_session");

  // B revokes everyone's access to /d.  The push at A cannot be delivered;
  // the DMS drops A's now-undeliverable watches.
  ASSERT_TRUE(net::RunInline(b.client->Chmod("/d", 0000)).ok());
  EXPECT_GE(registry.CounterValue("notify.server.no_session"),
            no_session_before + 1);

  // A's leased cache still allows the write: the remote-writer relaxation
  // in action (DESIGN.md).  A's clock still reads its lease's grant time,
  // and even one nanosecond before the term ends the lease holds.
  EXPECT_TRUE(net::RunInline(a.client->Create("/d/f2", 0644)).ok());
  a_now += core::proto::kLeaseNs - 1;
  EXPECT_TRUE(net::RunInline(a.client->Create("/d/f3", 0644)).ok());

  // ...but not past the lease: once it expires, A revalidates at the DMS
  // and the new mode denies it.
  a_now += 1;
  EXPECT_EQ(net::RunInline(a.client->Create("/d/f4", 0644)).code(),
            ErrCode::kPermission);
}

// Server-side severing: the DMS dies and comes back on the same port.  The
// listener (polling its stream on its own thread) must notice the dead
// stream, reconnect with backoff, surface kResync — dropping the client's
// cached state, since pushes may have been missed — and then deliver pushes
// on the re-established stream, polling the new stream's descriptor.
TEST_F(NotifyClusterTest, ServerSeveredStreamReconnectsAndResyncs) {
  StartCluster();
  Peer a = MakePeer(BaseOptions());
  Peer b = MakePeer(BaseOptions());
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 2; }));

  ASSERT_TRUE(net::RunInline(a.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(a.client->Create("/d/f", 0644)).ok());
  ASSERT_GE(a.loco->cache_size(), 1u);

  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t reconnects_before =
      registry.CounterValue("notify.listener.reconnects");
  const std::uint64_t resyncs_before =
      registry.CounterValue("notify.listener.resyncs");

  // Kill the DMS incarnation and restart it on the same port (same
  // in-process stores, so the namespace survives like a daemon restart
  // from its --store-dir would).
  const std::uint16_t dms_port = dms_server_->port();
  dms_server_->Stop();
  net::TcpServer::Options restart_options;
  restart_options.port = dms_port;
  dms_server_ = std::make_unique<net::TcpServer>(&dms_, restart_options);
  ASSERT_TRUE(dms_server_->Start().ok());
  dms_.SetNotifier(dms_server_.get());

  // Both listeners reconnect and re-hello; each reconnect is a resync.
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 2; }))
      << "listeners never re-established their streams";
  // The server registers a session before its hello reply reaches the
  // listener, which bumps the counter only after decoding that reply — so
  // the counters trail notify_sessions() and must be awaited, not asserted.
  ASSERT_TRUE(Await([&] {
    return registry.CounterValue("notify.listener.reconnects") >=
           reconnects_before + 2;
  }));
  ASSERT_TRUE(Await([&] {
    return registry.CounterValue("notify.listener.resyncs") >=
           resyncs_before + 2;
  }));
  // kResync dropped A's cached state (missed pushes are possible).
  ASSERT_TRUE(Await([&] { return a.loco->cache_size() == 0; }));

  // The re-established stream carries pushes end to end: A re-arms its
  // lease on /d, B mutates it, and the invalidation lands at A.
  const std::uint64_t invalidates_before =
      registry.CounterValue("notify.listener.invalidates");
  ASSERT_TRUE(net::RunInline(a.client->Stat("/d/f")).ok());
  ASSERT_TRUE(net::RunInline(b.client->Mkdir("/d/after-sever", 0755)).ok());
  ASSERT_TRUE(Await([&] {
    return registry.CounterValue("notify.listener.invalidates") >
           invalidates_before;
  })) << "reconnected stream never delivered a push";
}

// Dropped and duplicated pushes: the client never wedges, never
// double-applies, and converges — by resync when a later push lands, by
// lease expiry when none does.
TEST_F(NotifyClusterTest, DroppedAndDuplicatedPushesStillConverge) {
  auto spec = net::FaultSpec::Parse("notify_drop=0.4,notify_dup=0.3,seed=7");
  ASSERT_TRUE(spec.ok());
  net::FaultInjector fault(*spec);
  StartCluster(&fault);

  // The reader's clock is injected: stepping it past the lease term every
  // round keeps it re-arming its watch, so each writer mutation produces a
  // push for the fault plane to mangle.
  std::atomic<std::uint64_t> a_now{WallNow()};
  Peer a = MakePeer(BaseOptions(), [&a_now] { return a_now.load(); });
  Peer b = MakePeer(BaseOptions());
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 2; }));

  ASSERT_TRUE(net::RunInline(a.client->Mkdir("/d", 0755)).ok());
  ASSERT_TRUE(net::RunInline(a.client->Create("/d/f", 0644)).ok());

  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t drops_before =
      registry.CounterValue("faults.injected.notify_drop");
  const std::uint64_t dups_before =
      registry.CounterValue("faults.injected.notify_dup");

  for (int i = 0; i < 40; ++i) {
    // Let A's lease lapse, re-arm its watch on /d, then mutate /d from B:
    // one push per round for the fault plane to mangle.
    a_now += core::proto::kLeaseNs;
    ASSERT_TRUE(net::RunInline(a.client->Stat("/d/f")).ok());
    ASSERT_TRUE(
        net::RunInline(b.client->Mkdir("/d/s" + std::to_string(i), 0755))
            .ok());
  }
  // The server drains pushes asynchronously; wait for the fates to land.
  ASSERT_TRUE(Await([&] {
    return registry.CounterValue("faults.injected.notify_drop") > drops_before;
  }));
  ASSERT_TRUE(Await([&] {
    return registry.CounterValue("faults.injected.notify_dup") > dups_before;
  }));

  // Convergence despite the faulty stream: B revokes access, and A observes
  // it — through a delivered push, a gap-resync, or at worst the lease,
  // which a hundredth of a term per probe runs out within 100 probes.
  ASSERT_TRUE(net::RunInline(b.client->Chmod("/d", 0000)).ok());
  int probe = 0;
  ASSERT_TRUE(Await([&] {
    a_now += core::proto::kLeaseNs / 100;
    const std::string path = "/d/p" + std::to_string(probe++);
    return net::RunInline(a.client->Create(path, 0644)).code() ==
           ErrCode::kPermission;
  }));
  // The mangled stream was actually exercised client-side.
  EXPECT_GE(registry.CounterValue("notify.listener.invalidates"), 1u);
}

// A restarted server announces itself to the DMS; the DMS gossips the
// restart over the notify streams and clients close that node's circuit
// breaker immediately instead of waiting out the open interval.
TEST_F(NotifyClusterTest, BreakerGossipClosesATrippedBreaker) {
  StartCluster();
  core::ClientOptions options = BaseOptions();
  options.channel.call_deadline_ns = 500 * common::kMilli;
  Peer a = MakePeer(options);
  ASSERT_TRUE(Await([&] { return dms_server_->notify_sessions() == 1; }));
  ASSERT_TRUE(net::RunInline(a.client->Create("/warm", 0644)).ok());

  // Kill the FMS and trip its breaker: every attempt of both creates fails,
  // and together they make more than kBreakerThreshold attempts.
  static_assert(2 * net::ResilientChannel::kMaxAttempts >
                net::ResilientChannel::kBreakerThreshold);
  const std::string fms_hostport = HostPort(*fms_server_);
  const std::uint16_t fms_port = fms_server_->port();
  fms_server_->Stop();
  EXPECT_FALSE(net::RunInline(a.client->Create("/x1", 0644)).ok());
  EXPECT_FALSE(net::RunInline(a.client->Create("/x2", 0644)).ok());
  ASSERT_EQ(a.mount.resilient->breaker_state(1), net::BreakerState::kOpen);

  // Restart the FMS on the same port and announce it to the DMS, exactly as
  // `locofs_fmsd --announce` does after its socket is serving.
  net::TcpServer::Options restart_options;
  restart_options.port = fms_port;
  fms_server_ = std::make_unique<net::TcpServer>(fms_.get(), restart_options);
  ASSERT_TRUE(fms_server_->Start().ok());
  ASSERT_EQ(HostPort(*fms_server_), fms_hostport);

  auto& registry = common::MetricsRegistry::Default();
  const std::uint64_t resets_before =
      registry.CounterValue("rpc.resilient.gossip_resets");
  net::RpcResponse announce;
  bool announce_done = false;
  a.mount.channel->CallAsync(0, core::proto::kDmsAnnounce,
                             fs::Pack(std::uint32_t{1}, std::uint64_t{99}),
                             [&](net::RpcResponse resp) {
                               announce = std::move(resp);
                               announce_done = true;
                             });
  ASSERT_TRUE(Await([&] { return announce_done; }));
  ASSERT_TRUE(announce.ok()) << int(announce.code);

  // Only gossip closes the breaker here: without a call, the open interval
  // running out leaves it half-open, never closed.
  ASSERT_TRUE(Await([&] {
    return a.mount.resilient->breaker_state(1) == net::BreakerState::kClosed;
  }));
  EXPECT_GE(registry.CounterValue("rpc.resilient.gossip_resets"),
            resets_before + 1);
  // The node is usable again right away, with no half-open probe.
  EXPECT_TRUE(net::RunInline(a.client->Create("/x3", 0644)).ok());
}

}  // namespace
}  // namespace loco
