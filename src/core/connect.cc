#include "core/connect.h"

#include <unistd.h>

#include <atomic>
#include <utility>

#include "common/clock.h"

namespace loco::core {

namespace {

// Process-unique, cross-process-unlikely-to-collide mount identity: the DMS
// keys notify sessions and lease watches by it, and distinct client processes
// on one host must not alias.  0 is reserved for "anonymous".
std::uint64_t NextClientId() {
  static const std::uint64_t base =
      (static_cast<std::uint64_t>(::getpid()) << 48) |
      ((static_cast<std::uint64_t>(common::WallClockNs()) << 16) &
       0x0000ffffffff0000ull);
  static std::atomic<std::uint64_t> counter{0};
  return base | (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace

Result<ClientOptions> ClientOptions::FromSpec(std::string_view spec) {
  ClientOptions opts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status(ErrCode::kInvalid,
                    "connect spec entry '" + std::string(entry) +
                        "' is not role=host:port");
    }
    const std::string_view role = entry.substr(0, eq);
    const std::string_view addr = entry.substr(eq + 1);
    std::string host;
    std::uint16_t port = 0;
    if (!net::ParseHostPort(addr, &host, &port)) {
      return Status(ErrCode::kInvalid,
                    "bad host:port '" + std::string(addr) + "' for role '" +
                        std::string(role) + "'");
    }
    if (role == "dms") {
      opts.dms.emplace_back(addr);
    } else if (role == "fms") {
      opts.fms.emplace_back(addr);
    } else if (role == "osd") {
      opts.object_stores.emplace_back(addr);
    } else {
      return Status(ErrCode::kInvalid,
                    "unknown role '" + std::string(role) + "' (dms|fms|osd)");
    }
  }
  if (opts.dms.empty()) {
    return Status(ErrCode::kInvalid,
                  "connect spec needs at least one dms=host:port");
  }
  if (opts.fms.empty()) {
    return Status(ErrCode::kInvalid, "connect spec needs at least one fms=");
  }
  if (opts.object_stores.empty()) {
    return Status(ErrCode::kInvalid, "connect spec needs at least one osd=");
  }
  return opts;
}

std::unique_ptr<fs::FileSystemClient> MountHandle::MakeClient(
    fs::TimeFn now) const {
  LocoClient::Config cfg = config;
  cfg.now = std::move(now);
  return std::make_unique<LocoClient>(rpc(), cfg);
}

Result<MountHandle> Connect(const ClientOptions& options) {
  MountHandle m;
  m.client_id = NextClientId();

  net::TcpChannelOptions channel_options = options.channel;
  channel_options.client_id = m.client_id;
  m.channel = std::make_unique<net::TcpChannel>(channel_options);

  const auto register_node = [&](net::NodeId id,
                                 const std::string& addr) -> Status {
    if (!m.channel->Register(id, addr)) {
      return Status(ErrCode::kInvalid, "bad endpoint '" + addr + "'");
    }
    return Status::Ok();
  };

  // DMS shard node ids: shard 0 keeps the historic id 0 (single-shard specs
  // stay wire-compatible with old deployments); shards 1..N-1 get 900+i,
  // below the object-store range and above any realistic FMS count.
  const auto dms_node = [](std::size_t shard) -> net::NodeId {
    return shard == 0 ? 0 : static_cast<net::NodeId>(900 + shard);
  };
  m.config.dms.clear();
  for (std::size_t i = 0; i < options.dms.size(); ++i) {
    LOCO_RETURN_IF_ERROR(register_node(dms_node(i), options.dms[i]));
    m.config.dms.push_back(dms_node(i));
  }
  for (std::size_t i = 0; i < options.fms.size(); ++i) {
    const net::NodeId id = static_cast<net::NodeId>(1 + i);
    LOCO_RETURN_IF_ERROR(register_node(id, options.fms[i]));
    m.config.fms.push_back(id);
  }
  for (std::size_t i = 0; i < options.object_stores.size(); ++i) {
    const net::NodeId id = static_cast<net::NodeId>(1000 + i);
    LOCO_RETURN_IF_ERROR(register_node(id, options.object_stores[i]));
    m.config.object_stores.push_back(id);
  }
  m.config.cache_enabled = options.cache_enabled;

  if (options.resilience) {
    m.resilient = std::make_unique<net::ResilientChannel>(m.channel.get());
  }

  if (options.notify) {
    m.fanout = std::make_shared<NotifyFanout>();
    m.config.fanout = m.fanout;
    // One listener per DMS shard: each shard pushes invalidations for the
    // directories it owns, and all streams feed the one shared fanout.
    for (std::size_t i = 0; i < options.dms.size(); ++i) {
      net::NotifyListener::Options lo;
      if (!net::ParseHostPort(options.dms[i], &lo.host, &lo.port)) {
        return Status(ErrCode::kInvalid,
                      "bad endpoint '" + options.dms[i] + "'");
      }
      lo.client_id = m.client_id;
      // The callback runs on the listener's reader thread.  It captures the
      // fanout by shared_ptr and the resilient channel by raw pointer — both
      // heap-stable across MountHandle moves.
      std::shared_ptr<NotifyFanout> fanout = m.fanout;
      net::ResilientChannel* resilient = m.resilient.get();
      const net::NodeId shard_node = dms_node(i);
      auto callback = [fanout, resilient,
                       shard_node](const net::NotifyEvent& event) {
        switch (event.kind) {
          case net::NotifyEvent::Kind::kInvalidate:
            fanout->Invalidate(event.invalidate.path, event.invalidate.subtree,
                               event.invalidate.wall_ts_ns);
            break;
          case net::NotifyEvent::Kind::kServerUp:
            if (resilient != nullptr) {
              resilient->NotifyServerUp(event.server_up.node);
            }
            break;
          case net::NotifyEvent::Kind::kResync:
            // Missed pushes are possible: drop cached state.  Reaching the
            // hello also proves this shard is back, so close its breaker.
            fanout->Resync();
            if (resilient != nullptr) resilient->NotifyServerUp(shard_node);
            break;
          case net::NotifyEvent::Kind::kStreamDown:
            break;  // leases stay authoritative; nothing to do
        }
      };
      m.listeners.push_back(
          std::make_unique<net::NotifyListener>(lo, std::move(callback)));
      LOCO_RETURN_IF_ERROR(m.listeners.back()->Start());
    }
  }
  return m;
}

}  // namespace loco::core
