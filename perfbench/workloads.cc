#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <functional>
#include <random>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "core/proto.h"
#include "net/task.h"

namespace locobench {
namespace {

namespace core = loco::core;
namespace net = loco::net;
using loco::ErrCode;
using loco::Status;

constexpr std::uint32_t kDirMode = 0755;
constexpr std::uint32_t kFileMode = 0644;
constexpr std::size_t kMaxErrors = 8;

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t NameHash(const std::string& name) {
  return Mix(std::hash<std::string>{}(name));
}

// Deterministic file contents for (seed, path).
std::string Contents(std::uint64_t seed, const std::string& path,
                     std::size_t bytes) {
  std::string data(bytes, '\0');
  std::uint64_t state = Mix(seed ^ std::hash<std::string>{}(path));
  for (std::size_t i = 0; i < bytes; i += 8) {
    state = Mix(state);
    for (std::size_t j = 0; j < 8 && i + j < bytes; ++j) {
      data[i + j] = static_cast<char>(state >> (8 * j));
    }
  }
  return data;
}

bool AllOk(const std::vector<ErrCode>& codes) {
  return std::all_of(codes.begin(), codes.end(),
                     [](ErrCode c) { return c == ErrCode::kOk; });
}

// One closed-loop caller: times every client call and records failures.
class Caller {
 public:
  Caller(core::LocoClient& client, std::uint64_t seed, int index, int cycle)
      : client_(client),
        index_(index),
        rng_(Mix(seed) ^ Mix(static_cast<std::uint64_t>(cycle) * 131 +
                             static_cast<std::uint64_t>(index))) {}

  core::LocoClient& client() { return client_; }
  int index() const { return index_; }
  CycleStats& stats() { return stats_; }

  // `n` seeded names with distinct stems.
  std::vector<std::string> Names(const std::string& stem, int n) {
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(n));
    char buf[32];
    for (int i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof(buf), "%s%d_%08x", stem.c_str(), i,
                    static_cast<unsigned>(rng_()));
      names.emplace_back(buf);
    }
    return names;
  }

  template <typename T>
  std::vector<T> Shuffled(std::vector<T> v) {
    std::shuffle(v.begin(), v.end(), rng_);
    return v;
  }

  std::mt19937_64& rng() { return rng_; }

  // Runs one client call as a timed op.  `subops` is what the call counts
  // toward ops_per_s when it succeeds.
  template <typename MakeTask>
  auto Timed(OpKind kind, std::uint64_t subops, MakeTask&& make) {
    const std::uint64_t id = BeginOp();
    const std::int64_t start = NowNs();
    auto result = net::RunInline(make());
    const std::int64_t end = NowNs();
    EndOp(id, kind, start, end);
    stats_.latency_ns[static_cast<std::size_t>(kind)].push_back(end - start);
    ++stats_.attempted;
    pending_subops_ = subops;
    return result;
  }

  // Settles the last Timed call: counts its ops, or records the failure.
  void Check(bool ok, const std::string& what) {
    if (ok) {
      stats_.ops += pending_subops_;
    } else {
      ++stats_.failed;
      Error(what);
    }
    pending_subops_ = 0;
  }

  // A wrong namespace found by an untimed check.
  void Error(const std::string& what) {
    if (stats_.errors.size() < kMaxErrors) {
      stats_.errors.push_back("caller " + std::to_string(index_) + ": " + what);
    }
  }

  // Common single ops.
  void Mkdir(const std::string& path) {
    const Status s = Timed(OpKind::kMkdir, 1,
                           [&] { return client_.Mkdir(path, kDirMode); });
    Check(s.ok(), "mkdir " + path + ": " + s.ToString());
  }
  void Rmdir(const std::string& path) {
    const Status s =
        Timed(OpKind::kRmdir, 1, [&] { return client_.Rmdir(path); });
    Check(s.ok(), "rmdir " + path + ": " + s.ToString());
  }
  void Create(const std::string& path) {
    const Status s = Timed(OpKind::kCreate, 1,
                           [&] { return client_.Create(path, kFileMode); });
    Check(s.ok(), "create " + path + ": " + s.ToString());
  }
  void Unlink(const std::string& path) {
    const Status s =
        Timed(OpKind::kUnlink, 1, [&] { return client_.Unlink(path); });
    Check(s.ok(), "unlink " + path + ": " + s.ToString());
  }
  void Rename(const std::string& from, const std::string& to) {
    const Status s =
        Timed(OpKind::kRename, 1, [&] { return client_.Rename(from, to); });
    Check(s.ok(), "rename " + from + ": " + s.ToString());
  }
  void Stat(const std::string& path, std::uint64_t want_size) {
    auto attr = Timed(OpKind::kStat, 1, [&] { return client_.Stat(path); });
    Check(attr.ok() && !attr->is_dir && attr->size == want_size,
          "stat " + path + (attr.ok() ? ": wrong attributes"
                                      : ": " + attr.status().ToString()));
  }
  void StatMany(const std::string& dir, std::vector<std::string> names,
                std::uint64_t want_size) {
    const std::size_t n = names.size();
    auto entries = Timed(OpKind::kBatch, n, [&] {
      return client_.StatMany(dir, std::move(names));
    });
    bool ok = entries.ok() && entries->size() == n;
    if (ok) {
      for (const auto& e : *entries) {
        ok = ok && e.code == ErrCode::kOk && e.attr.size == want_size;
      }
    }
    Check(ok, "StatMany " + dir);
  }
  // Timed Readdir that must list exactly `want_count` entries whose name
  // hashes sum to `want_hash`.
  void Readdir(const std::string& dir, std::size_t want_count,
               std::uint64_t want_hash) {
    auto list = Timed(OpKind::kReaddir, 1, [&] { return client_.Readdir(dir); });
    bool ok = list.ok() && list->size() == want_count;
    if (ok) {
      std::uint64_t hash = 0;
      for (const auto& e : *list) hash += NameHash(e.name);
      ok = hash == want_hash;
    }
    Check(ok, "readdir " + dir + (list.ok() ? ": " + std::to_string(list->size()) +
                                                  " entries, want " +
                                                  std::to_string(want_count)
                                            : ": " + list.status().ToString()));
  }
  // Untimed listing check (the end-of-cycle namespace audit).
  void ExpectCount(const std::string& dir, std::size_t want) {
    auto list = net::RunInline(client_.Readdir(dir));
    if (!list.ok() || list->size() != want) {
      Error("audit " + dir + ": " +
            (list.ok() ? std::to_string(list->size()) + " entries, want " +
                             std::to_string(want)
                       : list.status().ToString()));
    }
  }

 private:
  core::LocoClient& client_;
  int index_;
  std::mt19937_64 rng_;
  CycleStats stats_;
  std::uint64_t pending_subops_ = 0;
};

std::uint64_t HashSum(const std::vector<std::string>& names) {
  std::uint64_t h = 0;
  for (const auto& n : names) h += NameHash(n);
  return h;
}

// small_dirs: per directory mkdir, N creates, N stats in seeded order,
// StatMany over the whole directory (several times, in fresh seeded orders,
// so the batch p99 has enough samples), one readdir, a directory rename, N
// unlinks and rmdir.  Every op runs against a warm lease and a short dirent
// list.
void SmallDirs(Caller& c, const Sizes& sizes) {
  const std::string base = "/c" + std::to_string(c.index());
  c.Mkdir(base);
  for (int k = 0; k < sizes.small_dirs; ++k) {
    const std::string dir = base + "/d" + std::to_string(k);
    const std::string renamed = base + "/r" + std::to_string(k);
    const std::vector<std::string> names = c.Names("f", sizes.small_files);
    c.Mkdir(dir);
    for (const auto& n : names) c.Create(dir + "/" + n);
    for (const auto& n : c.Shuffled(names)) c.Stat(dir + "/" + n, 0);
    for (int b = 0; b < sizes.small_stat_batches; ++b) {
      c.StatMany(dir, c.Shuffled(names), 0);
    }
    c.Readdir(dir, names.size(), HashSum(names));
    c.Rename(dir, renamed);
    for (const auto& n : c.Shuffled(names)) c.Unlink(renamed + "/" + n);
    c.Rmdir(renamed);
  }
  c.ExpectCount(base, 0);
  c.Rmdir(base);
}

// State both callers of a cycle share.
struct CycleShared {
  explicit CycleShared(int callers) : barrier(callers) {}
  std::barrier<> barrier;
  std::atomic<std::uint64_t> name_hash{0};
  std::atomic<std::uint64_t> entries{0};
};

// True when the (issued+1)-th of `k` side ops is due after `done` of
// `total` main ops: spreads the side ops evenly over the main phase.
bool SideOpDue(std::size_t done, std::size_t total, int k, int issued) {
  return issued < k && done * static_cast<std::size_t>(k) >=
                           static_cast<std::size_t>(issued + 1) * total;
}

// big_dir: both callers fill one shared directory, stat every entry (in
// several seeded passes), list it repeatedly and unlink everything.  Side
// directories give the mkdir and rename samples without touching the big
// directory's dirent lists; they are spread evenly over the stat passes, so
// a short stall of the host cannot land on all of their samples.  Each
// phase is fenced by a barrier: a 10,000-entry listing on one caller would
// otherwise sit in the tail of the other caller's stats.
void BigDir(Caller& c, const Sizes& sizes, CycleShared& shared) {
  const std::string big = "/big";
  const std::string side = "/s" + std::to_string(c.index());
  if (c.index() == 0) c.Mkdir(big);
  c.Mkdir(side);
  const int mine = sizes.big_entries / kCallers;
  const std::vector<std::string> names =
      c.Names("c" + std::to_string(c.index()) + "_", mine);
  shared.name_hash += HashSum(names);
  shared.entries += names.size();
  shared.barrier.arrive_and_wait();  // /big exists
  for (const auto& n : c.Shuffled(names)) c.Create(big + "/" + n);
  shared.barrier.arrive_and_wait();  // /big is full

  // Each pass stats every own entry in a fresh seeded order and, after each
  // chunk of single stats, StatMany's the same chunk.  The first half of the
  // chunks also makes the side directories, the second half renames them.
  const std::size_t batch = static_cast<std::size_t>(sizes.big_stat_batch);
  const std::size_t chunks_per_pass = (names.size() + batch - 1) / batch;
  const std::size_t chunks =
      chunks_per_pass * static_cast<std::size_t>(sizes.big_stat_passes);
  const std::size_t half = chunks / 2;
  std::size_t chunk = 0;
  int made = 0;
  int renamed = 0;
  auto side_dir = [&side](const char* stem, int j) {
    return side + "/" + stem + std::to_string(j);
  };
  for (int pass = 0; pass < sizes.big_stat_passes; ++pass) {
    const std::vector<std::string> order = c.Shuffled(names);
    for (std::size_t off = 0; off < order.size(); off += batch) {
      const std::size_t end = std::min(order.size(), off + batch);
      for (std::size_t i = off; i < end; ++i) c.Stat(big + "/" + order[i], 0);
      c.StatMany(big, {order.begin() + off, order.begin() + end}, 0);
      ++chunk;
      if (chunk <= half && SideOpDue(chunk, half, sizes.big_side_dirs, made)) {
        c.Mkdir(side_dir("a", made++));
      } else if (chunk > half && made == sizes.big_side_dirs &&
                 SideOpDue(chunk - half, chunks - half, sizes.big_side_dirs,
                           renamed)) {
        c.Rename(side_dir("a", renamed), side_dir("b", renamed));
        ++renamed;
      }
    }
  }
  for (; made < sizes.big_side_dirs; ++made) c.Mkdir(side_dir("a", made));
  for (; renamed < sizes.big_side_dirs; ++renamed) {
    c.Rename(side_dir("a", renamed), side_dir("b", renamed));
  }
  shared.barrier.arrive_and_wait();  // every stat done
  for (int r = 0; r < sizes.big_listings; ++r) {
    c.Readdir(big, shared.entries.load(), shared.name_hash.load());
  }
  shared.barrier.arrive_and_wait();  // every listing done

  for (const auto& n : c.Shuffled(names)) c.Unlink(big + "/" + n);
  for (int j = 0; j < sizes.big_side_dirs; ++j) c.Rmdir(side_dir("b", j));
  c.Rmdir(side);
  shared.barrier.arrive_and_wait();  // /big is empty
  if (c.index() == 0) {
    c.ExpectCount(big, 0);
    c.Rmdir(big);
  }
}

// batch_ingest: MkdirMany builds the caller's tree, then per directory
// CreateMany, PutMany, StatMany and ReaddirPlus.  A short per-op tail per
// directory (creates, stats, unlinks, a mkdir and a rename) then shows every
// op type against the ingested state; a barrier keeps it apart from the
// other caller's batches, whose 256 KiB frames would otherwise set its
// tail.  Ends with a seeded read-back of file bytes.
void BatchIngest(Caller& c, const Sizes& sizes, std::uint64_t seed,
                 CycleShared& shared) {
  const std::string base = "/b" + std::to_string(c.index());
  std::vector<std::string> dirs;
  for (int k = 0; k < sizes.ingest_dirs; ++k) {
    dirs.push_back(base + "/d" + std::to_string(k));
  }
  std::vector<std::string> tree = dirs;
  tree.insert(tree.begin(), base);
  for (std::size_t off = 0; off < tree.size();
       off += static_cast<std::size_t>(sizes.ingest_mkdir_batch)) {
    const std::size_t end = std::min(
        tree.size(), off + static_cast<std::size_t>(sizes.ingest_mkdir_batch));
    std::vector<std::string> chunk(tree.begin() + off, tree.begin() + end);
    const std::size_t n = chunk.size();
    auto codes = c.Timed(OpKind::kBatch, n, [&] {
      return c.client().MkdirMany(std::move(chunk), kDirMode);
    });
    c.Check(codes.ok() && codes->size() == n && AllOk(*codes),
            "MkdirMany " + tree[off]);
  }

  const std::uint64_t bytes = static_cast<std::uint64_t>(sizes.ingest_bytes);
  std::vector<std::vector<std::string>> all_names;
  for (const std::string& dir : dirs) {
    const std::vector<std::string> names = c.Names("f", sizes.ingest_files);
    all_names.push_back(names);
    const std::size_t n = names.size();
    auto created = c.Timed(OpKind::kBatch, n, [&] {
      return c.client().CreateMany(dir, names, kFileMode);
    });
    c.Check(created.ok() && created->size() == n && AllOk(*created),
            "CreateMany " + dir);

    std::vector<core::LocoClient::PutEntry> puts;
    puts.reserve(n);
    for (const auto& name : names) {
      puts.push_back({name, Contents(seed, dir + "/" + name, bytes)});
    }
    auto put = c.Timed(OpKind::kBatch, n, [&] {
      return c.client().PutMany(dir, std::move(puts));
    });
    c.Check(put.ok() && put->size() == n && AllOk(*put), "PutMany " + dir);

    c.StatMany(dir, names, bytes);

    auto listing = c.Timed(OpKind::kReaddir, 1,
                           [&] { return c.client().ReaddirPlus(dir); });
    bool listed = listing.ok() && listing->size() == n;
    if (listed) {
      std::uint64_t hash = 0;
      for (const auto& e : *listing) {
        listed = listed && !e.is_dir && e.code == ErrCode::kOk &&
                 e.attr.size == bytes;
        hash += NameHash(e.name);
      }
      listed = listed && hash == HashSum(names);
    }
    c.Check(listed, "ReaddirPlus " + dir);
  }

  shared.barrier.arrive_and_wait();  // every batch done
  for (const std::string& dir : dirs) {
    const std::vector<std::string> tail = c.Names("t", sizes.ingest_tail);
    for (const auto& t : tail) c.Create(dir + "/" + t);
    for (const auto& t : tail) c.Stat(dir + "/" + t, 0);
    for (const auto& t : tail) c.Unlink(dir + "/" + t);
    c.Mkdir(dir + "/sub");
    c.Rename(dir + "/sub", dir + "/sub2");
  }

  // Audit: a seeded sample of files reads back its bytes, and a seeded
  // sample of directories lists the files plus the renamed subdirectory.
  std::uniform_int_distribution<std::size_t> pick_dir(0, dirs.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_file(
      0, static_cast<std::size_t>(sizes.ingest_files) - 1);
  for (int i = 0; i < sizes.ingest_readback; ++i) {
    const std::size_t d = pick_dir(c.rng());
    const std::string path = dirs[d] + "/" + all_names[d][pick_file(c.rng())];
    auto data = net::RunInline(c.client().Read(path, 0, bytes));
    if (!data.ok() || *data != Contents(seed, path, bytes)) {
      c.Error("read-back " + path +
              (data.ok() ? ": wrong bytes" : ": " + data.status().ToString()));
    }
  }
  for (int i = 0; i < 4; ++i) {
    const std::size_t d = pick_dir(c.rng());
    c.ExpectCount(dirs[d], static_cast<std::size_t>(sizes.ingest_files) + 1);
  }
}

std::string HostPort(const net::TcpServer& server) {
  return server.host() + ":" + std::to_string(server.port());
}

}  // namespace

Sizes Sizes::Smoke() {
  Sizes s;
  s.small_dirs = 2;
  s.small_files = 10;
  s.big_entries = 400;
  s.big_side_dirs = 4;
  s.big_listings = 2;
  s.ingest_dirs = 3;
  s.ingest_files = 8;
  s.ingest_readback = 4;
  return s;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "small_dirs") *out = Workload::kSmallDirs;
  else if (name == "big_dir") *out = Workload::kBigDir;
  else if (name == "batch_ingest") *out = Workload::kBatchIngest;
  else return false;
  return true;
}

void CycleStats::Merge(CycleStats&& other) {
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    latency_ns[k].insert(latency_ns[k].end(), other.latency_ns[k].begin(),
                         other.latency_ns[k].end());
  }
  attempted += other.attempted;
  failed += other.failed;
  ops += other.ops;
  for (auto& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(e));
  }
}

std::unique_ptr<Cluster> Cluster::Start(const std::string& dir, bool traced,
                                        std::string* error) {
  std::unique_ptr<Cluster> c(new Cluster());
  auto store_dir = [&dir](const std::string& name) {
    return dir.empty() ? std::string() : dir + "/" + name;
  };
  std::function<std::unique_ptr<loco::kv::Kv>(std::unique_ptr<loco::kv::Kv>)>
      decorator;
  if (traced) {
    decorator = [](std::unique_ptr<loco::kv::Kv> inner) {
      return std::make_unique<TimedKv>(std::move(inner));
    };
  }

  core::DirectoryMetadataServer::Options dms_options;
  dms_options.backend = loco::kv::KvBackend::kBTree;
  dms_options.kv.dir = store_dir("dms");
  dms_options.kv_decorator = decorator;
  c->dms_ = std::make_unique<core::DirectoryMetadataServer>(dms_options);
  c->handlers_.push_back(std::make_unique<TracingHandler>(
      c->dms_.get(), ServerKind::kDms, 0));
  for (std::uint32_t sid = 1; sid <= 2; ++sid) {
    core::FileMetadataServer::Options fms_options;
    fms_options.sid = sid;
    fms_options.decoupled = true;
    fms_options.backend = loco::kv::KvBackend::kHash;
    fms_options.kv.dir = store_dir("fms" + std::to_string(sid));
    fms_options.kv_decorator = decorator;
    c->fms_.push_back(
        std::make_unique<core::FileMetadataServer>(fms_options));
    c->handlers_.push_back(std::make_unique<TracingHandler>(
        c->fms_.back().get(), ServerKind::kFms,
        static_cast<std::uint8_t>(sid)));
  }
  core::ObjectStoreServer::Options osd_options;
  osd_options.kv.dir = store_dir("osd");
  c->osd_ = std::make_unique<core::ObjectStoreServer>(osd_options);
  c->handlers_.push_back(
      std::make_unique<TracingHandler>(c->osd_.get(), ServerKind::kOsd, 3));

  for (std::size_t i = 0; i < c->handlers_.size(); ++i) {
    c->dedup_.push_back(std::make_unique<net::DedupWindow>(
        core::proto::IdempotentReplayOps()));
    net::TcpServer::Options options;
    options.workers = kServerWorkers;
    options.dedup = c->dedup_.back().get();
    options.epoch = 1;
    if (i == 0) {
      core::DirectoryMetadataServer* dms = c->dms_.get();
      options.on_notify_disconnect = [dms](std::uint64_t client) {
        dms->DropClientLeases(client);
      };
    } else if (i <= c->fms_.size()) {
      core::FileMetadataServer* fms = c->fms_[i - 1].get();
      options.on_client_disconnect = [fms](std::uint64_t client) {
        fms->DropClientSessions(client);
      };
    }
    c->servers_.push_back(
        std::make_unique<net::TcpServer>(c->handlers_[i].get(), options));
    if (Status s = c->servers_.back()->Start(); !s.ok()) {
      *error = "server start: " + s.ToString();
      return nullptr;
    }
  }
  c->dms_->SetNotifier(c->servers_[0].get());

  core::ClientOptions client_options;
  client_options.dms = {HostPort(*c->servers_[0])};
  client_options.fms = {HostPort(*c->servers_[1]), HostPort(*c->servers_[2])};
  client_options.object_stores = {HostPort(*c->servers_[3])};
  client_options.resilience = true;
  client_options.notify = true;
  auto mount = core::Connect(client_options);
  if (!mount.ok()) {
    *error = "core::Connect: " + mount.status().ToString();
    return nullptr;
  }
  c->mount_ = std::make_unique<core::MountHandle>(std::move(*mount));
  net::Channel* channel = &c->mount_->rpc();
  if (traced) {
    c->channel_ = std::make_unique<TracingChannel>(c->mount_->rpc());
    channel = c->channel_.get();
  }
  for (int i = 0; i < kCallers; ++i) {
    core::LocoClient::Config config = c->mount_->config;
    config.now = [] { return static_cast<std::uint64_t>(loco::common::WallClockNs()); };
    c->clients_.push_back(std::make_unique<core::LocoClient>(*channel, config));
  }
  return c;
}

Cluster::~Cluster() {
  clients_.clear();
  channel_.reset();
  mount_.reset();
  for (auto& s : servers_) s->Stop();
}

std::vector<loco::kv::KvStats> Cluster::MetadataStoreStats() const {
  std::vector<loco::kv::KvStats> out;
  out.push_back(dms_->dir_kv().stats() + dms_->dirent_kv().stats());
  for (const auto& f : fms_) out.push_back(f->StoreStats());
  return out;
}

std::uint64_t Cluster::ShedCount() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s->shed_count() + s->expired_dropped_count();
  return n;
}

std::uint64_t Cluster::CacheHits() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += c->cache_hits();
  return n;
}

std::uint64_t Cluster::CacheMisses() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += c->cache_misses();
  return n;
}

CycleStats RunCycle(Workload workload, Cluster& cluster, const Sizes& sizes,
                    std::uint64_t seed, int cycle) {
  CycleShared shared(kCallers);
  std::vector<CycleStats> per_caller(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      Caller caller(cluster.client(i), seed, i, cycle);
      switch (workload) {
        case Workload::kSmallDirs: SmallDirs(caller, sizes); break;
        case Workload::kBigDir: BigDir(caller, sizes, shared); break;
        case Workload::kBatchIngest:
          BatchIngest(caller, sizes, seed, shared);
          break;
      }
      per_caller[static_cast<std::size_t>(i)] = std::move(caller.stats());
    });
  }
  for (auto& t : threads) t.join();
  CycleStats total;
  for (auto& s : per_caller) total.Merge(std::move(s));
  return total;
}

}  // namespace locobench
