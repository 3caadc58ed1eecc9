// loco_shell: an interactive shell over a LocoFS deployment — in-process by
// default, or against running daemons over TCP with --connect.
//
//   loco_shell [--connect dms=h:p[,dms=h:p...],fms=h:p[,fms=h:p...],osd=h:p[,osd=h:p...]]
//
// Commands:
//   mkdir <path>            rmdir <path>         ls <path>
//   touch <path>            rm <path>            mv <from> <to>
//   write <path> <text>     cat <path>           stat <path>
//   chmod <octal> <path>    su <uid> <gid>       cache
//   stats [json]            gc                   load
//   help                    quit
//
// `gc` prints each daemon's background-GC status (kCtlGcStatus) — daemons
// report "not running" unless started with --gc (docs/HOUSEKEEPING.md).
// `load` prints each daemon's overload-control status (kCtlLoadStatus:
// admission-queue depths, shed/expired counters, queue-delay EWMA —
// docs/OVERLOAD.md); only TCP daemons answer it, the in-process deployment
// reports it unavailable.
//
// Reads from stdin; EOF exits, so it is safe to pipe a script in:
//   printf 'mkdir /a\ntouch /a/f\nls /a\n' | ./build/examples/loco_shell
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "core/client.h"
#include "core/connect.h"
#include "core/dms.h"
#include "core/fms.h"
#include "core/gc.h"
#include "core/object_store.h"
#include "core/proto.h"
#include "net/inproc.h"
#include "net/task.h"
#include "net/tcp.h"
#include "net/wire.h"

using namespace loco;

namespace {

void PrintStatus(const Status& st) {
  std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
}

// Blocking admin RPC over whichever channel the shell is driving (TCP or
// in-process; both complete callbacks before CallAsync returns or shortly
// after, and the in-proc transport runs inline).
Result<std::string> AdminCall(net::Channel& channel, net::NodeId node,
                              std::uint16_t opcode, std::string payload) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  net::RpcResponse resp;
  channel.CallAsync(node, opcode, std::move(payload), [&](net::RpcResponse r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      resp = std::move(r);
      done = true;
    }
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  if (!resp.ok()) return ErrStatus(resp.code);
  return std::move(resp.payload);
}

void PrintGcStatus(net::Channel& channel,
                   const std::vector<net::NodeId>& dms_nodes,
                   const std::vector<net::NodeId>& fms_nodes,
                   const std::vector<net::NodeId>& osd_nodes) {
  auto print_one = [&](const std::string& label, net::NodeId node) {
    auto r = AdminCall(channel, node, core::proto::kCtlGcStatus, {});
    if (!r.ok()) {
      std::printf("%s: gc %s\n", label.c_str(),
                  r.code() == ErrCode::kUnavailable
                      ? "not running"
                      : r.status().ToString().c_str());
      return;
    }
    auto status = core::GcManager::ParseStatusPayload(*r);
    if (!status.ok()) {
      std::printf("%s: bad gc status payload\n", label.c_str());
      return;
    }
    std::printf("%s: %s cycles=%llu ops=%llu reclaimed=%llu\n", label.c_str(),
                status->running ? "running" : "stopped",
                static_cast<unsigned long long>(status->cycles),
                static_cast<unsigned long long>(status->ops),
                static_cast<unsigned long long>(status->reclaimed));
    for (const core::GcManager::TaskStatus& t : status->tasks) {
      std::printf("  %s: calls=%llu ops=%llu reclaimed=%llu\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.calls),
                  static_cast<unsigned long long>(t.ops),
                  static_cast<unsigned long long>(t.reclaimed));
    }
  };
  for (std::size_t i = 0; i < dms_nodes.size(); ++i) {
    print_one(dms_nodes.size() == 1 ? "dms" : "dms" + std::to_string(i),
              dms_nodes[i]);
  }
  for (std::size_t i = 0; i < fms_nodes.size(); ++i) {
    print_one("fms" + std::to_string(i), fms_nodes[i]);
  }
  for (std::size_t i = 0; i < osd_nodes.size(); ++i) {
    print_one("osd" + std::to_string(i), osd_nodes[i]);
  }
}

void PrintLoadStatus(net::Channel& channel,
                     const std::vector<net::NodeId>& dms_nodes,
                     const std::vector<net::NodeId>& fms_nodes,
                     const std::vector<net::NodeId>& osd_nodes) {
  auto print_one = [&](const std::string& label, net::NodeId node) {
    auto r = AdminCall(channel, node, net::wire::kCtlLoadStatus, {});
    if (!r.ok()) {
      // In-process servers (no TcpServer in front) answer kUnsupported.
      std::printf("%s: load status unavailable (%s)\n", label.c_str(),
                  r.status().ToString().c_str());
      return;
    }
    net::LoadStatus status;
    if (!net::DecodeLoadStatus(*r, &status).ok()) {
      std::printf("%s: bad load-status payload\n", label.c_str());
      return;
    }
    std::printf(
        "%s: workers=%u queued fg=%u bg=%u ctl=%u qdelay=%.1fus"
        " shed=%llu expired=%llu stalls=%llu slow_disconnects=%llu\n",
        label.c_str(), status.workers, status.queued_foreground,
        status.queued_background, status.queued_control,
        static_cast<double>(status.queue_delay_ewma_ns) / 1e3,
        static_cast<unsigned long long>(status.shed),
        static_cast<unsigned long long>(status.expired_dropped),
        static_cast<unsigned long long>(status.read_stalls),
        static_cast<unsigned long long>(status.slow_client_disconnects));
  };
  for (std::size_t i = 0; i < dms_nodes.size(); ++i) {
    print_one(dms_nodes.size() == 1 ? "dms" : "dms" + std::to_string(i),
              dms_nodes[i]);
  }
  for (std::size_t i = 0; i < fms_nodes.size(); ++i) {
    print_one("fms" + std::to_string(i), fms_nodes[i]);
  }
  for (std::size_t i = 0; i < osd_nodes.size(); ++i) {
    print_one("osd" + std::to_string(i), osd_nodes[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (common::FlagValue(argc, argv, &i, "--connect", &connect)) continue;
    std::fprintf(stderr,
                 "usage: loco_shell [--connect dms=h:p[,dms=h:p...],fms=h:p,osd=h:p]\n");
    return 2;
  }

  // In-process deployment state (unused in --connect mode, but the objects
  // must outlive the command loop either way).
  net::InProcTransport transport;
  std::unique_ptr<core::DirectoryMetadataServer> dms;
  std::vector<std::unique_ptr<core::FileMetadataServer>> fms;
  std::unique_ptr<core::ObjectStoreServer> object_store;
  core::MountHandle mount;

  // Admin plane (gc / load): the channel and node ids the housekeeping
  // RPCs go to, same in both deployment modes.
  net::Channel* admin_channel = nullptr;
  std::vector<net::NodeId> admin_dms{0};
  std::vector<net::NodeId> admin_fms;
  std::vector<net::NodeId> admin_osd;

  std::uint64_t clock = 0;
  std::unique_ptr<fs::FileSystemClient> client_owner;
  if (!connect.empty()) {
    auto options = core::ClientOptions::FromSpec(connect);
    if (!options.ok()) {
      std::fprintf(stderr, "loco_shell: %s\n",
                   options.status().ToString().c_str());
      return 2;
    }
    auto mounted = core::Connect(*options);
    if (!mounted.ok()) {
      std::fprintf(stderr, "loco_shell: %s\n",
                   mounted.status().ToString().c_str());
      return 2;
    }
    mount = std::move(*mounted);
    admin_channel = &*mount.channel;
    admin_dms = mount.config.dms;
    admin_fms = mount.config.fms;
    admin_osd = mount.config.object_stores;
    client_owner = mount.MakeClient(
        [] { return static_cast<std::uint64_t>(common::CpuTimer::Now()); });
    std::printf("LocoFS shell — connected to %zu dms shard(s), %zu fms, "
                "%zu osd over TCP; 'help' for commands\n",
                options->dms.size(), options->fms.size(),
                options->object_stores.size());
  } else {
    dms = std::make_unique<core::DirectoryMetadataServer>();
    transport.Register(0, dms.get());
    std::vector<net::NodeId> fms_nodes;
    for (int i = 0; i < 4; ++i) {
      core::FileMetadataServer::Options options;
      options.sid = static_cast<std::uint32_t>(i + 1);
      fms.push_back(std::make_unique<core::FileMetadataServer>(options));
      transport.Register(1 + static_cast<net::NodeId>(i), fms.back().get());
      fms_nodes.push_back(1 + static_cast<net::NodeId>(i));
    }
    object_store = std::make_unique<core::ObjectStoreServer>();
    transport.Register(100, object_store.get());
    admin_channel = &transport;
    admin_dms = {0};
    admin_fms = fms_nodes;
    admin_osd = {100};

    core::LocoClient::Config cfg;
    cfg.dms = {0};
    cfg.fms = fms_nodes;
    cfg.object_stores = {100};
    cfg.now = [&clock] { return ++clock; };
    client_owner = std::make_unique<core::LocoClient>(transport, cfg);
    std::printf("LocoFS shell — 1 DMS + 4 FMS in-process; 'help' for commands\n");
  }

  fs::FileSystemClient& client = *client_owner;
  auto* loco = dynamic_cast<core::LocoClient*>(client_owner.get());
  client.SetIdentity(fs::Identity{1000, 1000});

  std::string line;
  while (std::printf("loco> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::printf(
          "mkdir rmdir ls touch rm mv write cat stat chmod su cache stats"
          " gc load quit\n");
    } else if (cmd == "mkdir" || cmd == "rmdir" || cmd == "touch" ||
               cmd == "rm") {
      std::string path;
      in >> path;
      if (cmd == "mkdir") {
        PrintStatus(net::RunInline(client.Mkdir(path, 0755)));
      } else if (cmd == "rmdir") {
        PrintStatus(net::RunInline(client.Rmdir(path)));
      } else if (cmd == "touch") {
        PrintStatus(net::RunInline(client.Create(path, 0644)));
      } else {
        PrintStatus(net::RunInline(client.Unlink(path)));
      }
    } else if (cmd == "ls") {
      std::string path;
      in >> path;
      if (path.empty()) path = "/";
      auto entries = net::RunInline(client.Readdir(path));
      if (!entries.ok()) {
        PrintStatus(entries.status());
        continue;
      }
      for (const fs::DirEntry& e : *entries) {
        std::printf("%s%s\n", e.name.c_str(), e.is_dir ? "/" : "");
      }
    } else if (cmd == "mv") {
      std::string from, to;
      in >> from >> to;
      PrintStatus(net::RunInline(client.Rename(from, to)));
    } else if (cmd == "write") {
      std::string path;
      in >> path;
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      PrintStatus(net::RunInline(client.Write(path, 0, text)));
    } else if (cmd == "cat") {
      std::string path;
      in >> path;
      auto data = net::RunInline(client.Read(path, 0, 1 << 20));
      if (!data.ok()) {
        PrintStatus(data.status());
      } else {
        std::printf("%s\n", data->c_str());
      }
    } else if (cmd == "stat") {
      std::string path;
      in >> path;
      auto attr = net::RunInline(client.Stat(path));
      if (!attr.ok()) {
        PrintStatus(attr.status());
      } else {
        std::printf("%s mode=%o uid=%u gid=%u size=%llu uuid=sid%u/fid%llu\n",
                    attr->is_dir ? "dir " : "file", attr->mode, attr->uid,
                    attr->gid, static_cast<unsigned long long>(attr->size),
                    attr->uuid.sid(),
                    static_cast<unsigned long long>(attr->uuid.fid()));
      }
    } else if (cmd == "chmod") {
      std::string octal, path;
      in >> octal >> path;
      PrintStatus(net::RunInline(client.Chmod(
          path, static_cast<std::uint32_t>(std::strtoul(octal.c_str(),
                                                        nullptr, 8)))));
    } else if (cmd == "su") {
      std::uint32_t uid = 0, gid = 0;
      in >> uid >> gid;
      client.SetIdentity(fs::Identity{uid, gid});
      std::printf("identity now uid=%u gid=%u\n", uid, gid);
    } else if (cmd == "cache") {
      if (loco) {
        std::printf("d-inode cache: %zu entries, %llu hits, %llu misses\n",
                    loco->cache_size(),
                    static_cast<unsigned long long>(loco->cache_hits()),
                    static_cast<unsigned long long>(loco->cache_misses()));
      } else {
        std::printf("cache stats unavailable for this client type\n");
      }
    } else if (cmd == "stats") {
      // Process-wide metrics: per-opcode RPC counters/latencies, per-server
      // op counters, KV gauges, client cache counters.  `stats json` emits
      // the machine-readable form benches write via --metrics-out.
      std::string format;
      in >> format;
      auto& registry = common::MetricsRegistry::Default();
      std::printf("%s\n", format == "json" ? registry.ToJson().c_str()
                                           : registry.ToText().c_str());
    } else if (cmd == "gc") {
      PrintGcStatus(*admin_channel, admin_dms, admin_fms, admin_osd);
    } else if (cmd == "load") {
      PrintLoadStatus(*admin_channel, admin_dms, admin_fms, admin_osd);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  std::printf("\nbye\n");
  return 0;
}
