// Ablation: the dirent encoding — the paper's concatenated list value
// (§3.2.1) against the one-record-per-entry store the DMS and FMS use.
//
// §3.2.1 keeps all of a directory's entries (per server) in one
// concatenated KV value, so an insert reads, rewrites and re-logs the whole
// list: its cost grows linearly with the directory.  The per-entry encoding
// stores one empty-valued record per entry under the directory's uuid
// prefix, in B+-tree stripes routed by that prefix (core/layout.h), so an
// insert is one O(log n) put and a listing is one ordered prefix scan.
//
// Both columns time the dirent operation alone, each over the store its
// encoding needs, so they differ in the encoding and nothing else: the
// concatenated column is a read-modify-write over a raw HashKV (the store
// the FMS kept its lists in), the per-entry column the FMS's dirent store.
// "B written" is the value bytes each create hands the store — what a WAL
// logs for it.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/deploy.h"
#include "benchlib/table.h"
#include "common/clock.h"
#include "common/codec.h"
#include "core/layout.h"
#include "kvstore/hash_kv.h"
#include "kvstore/striped_kv.h"

namespace {

using namespace loco;

const fs::Uuid kDir = fs::Uuid::Make(0xfffe, 5);

// One directory's entries under one encoding.
class Encoding {
 public:
  virtual ~Encoding() = default;
  virtual void Insert(const std::string& name) = 0;
  // Lists the directory; returns the entry count.
  virtual std::size_t List() const = 0;
  virtual kv::KvStats stats() const = 0;
};

// §3.2.1: one value per directory, a sequence of length-prefixed names.
class Concatenated final : public Encoding {
 public:
  void Insert(const std::string& name) override {
    std::string value;
    (void)kv_.Get(key_, &value);
    common::Writer(&value).PutBytes(name);
    (void)kv_.Put(key_, value);
  }
  std::size_t List() const override {
    std::string value;
    (void)kv_.Get(key_, &value);
    std::vector<std::string> names;
    common::Reader r(value);
    while (r.ok() && r.remaining() > 0) {
      const std::string_view name = r.GetBytes();
      if (r.ok()) names.emplace_back(name);
    }
    return names.size();
  }
  kv::KvStats stats() const override { return kv_.stats(); }

 private:
  kv::HashKV kv_;
  const std::string key_ = core::DirentPrefix(kDir);
};

// One record per entry.
class PerEntry final : public Encoding {
 public:
  PerEntry()
      : kv_(std::move(kv::MakeStripedKv(kv::KvBackend::kBTree, {}, 16,
                                        core::kDirentRouteBytes))
                .value()) {}
  void Insert(const std::string& name) override {
    (void)kv_->Put(core::DirentKey(kDir, name), {});
  }
  std::size_t List() const override {
    return core::ListDirents(*kv_, kDir).size();
  }
  kv::KvStats stats() const override { return kv_->stats(); }

 private:
  std::unique_ptr<kv::Kv> kv_;
};

struct Cost {
  double create_ns = 0;
  double readdir_ns = 0;
  double bytes_per_create = 0;
};

// Fills `enc` to `target` entries, then times `probes` creates and three
// listings at that size.
Cost Measure(Encoding& enc, std::size_t* filled, std::size_t target,
             int probes) {
  for (; *filled < target; ++*filled) enc.Insert("f" + std::to_string(*filled));
  Cost cost;
  const std::uint64_t written = enc.stats().bytes_written;
  common::CpuTimer create_timer;
  for (int i = 0; i < probes; ++i) {
    enc.Insert("p" + std::to_string(target) + "_" + std::to_string(i));
  }
  cost.create_ns = static_cast<double>(create_timer.ElapsedNanos()) / probes;
  cost.bytes_per_create =
      static_cast<double>(enc.stats().bytes_written - written) / probes;
  *filled += static_cast<std::size_t>(probes);

  constexpr int kListings = 3;
  std::size_t listed = 0;
  common::CpuTimer readdir_timer;
  for (int i = 0; i < kListings; ++i) listed += enc.List();
  cost.readdir_ns =
      static_cast<double>(readdir_timer.ElapsedNanos()) / kListings;
  if (listed != kListings * *filled) std::fprintf(stderr, "listing mismatch\n");
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  loco::bench::MetricsDump metrics_dump(argc, argv);
  using loco::bench::Table;

  loco::bench::PrintBanner(
      "Ablation: dirent encoding",
      "per-create / per-readdir cost vs entries in one directory on one "
      "server: concatenated list value (§3.2.1) vs one record per entry");

  // The concatenated fill is quadratic (each insert copies the list): it
  // stops at 100K, where one create already costs hundreds of µs.
  const std::vector<std::size_t> sizes = {1'000, 10'000, 100'000, 1'000'000};
  constexpr std::size_t kConcatenatedMax = 100'000;

  std::vector<Cost> concatenated;
  {
    Concatenated enc;
    std::size_t filled = 0;
    for (std::size_t n : sizes) {
      if (n > kConcatenatedMax) break;
      concatenated.push_back(Measure(enc, &filled, n, 200));
    }
  }
  std::vector<Cost> per_entry;
  {
    PerEntry enc;
    std::size_t filled = 0;
    for (std::size_t n : sizes) {
      per_entry.push_back(Measure(enc, &filled, n, 2'000));
    }
  }

  Table table({"entries", "concat create", "concat readdir", "concat B written",
               "record create", "record readdir", "record B written"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row = {std::to_string(sizes[i])};
    if (i < concatenated.size()) {
      row.push_back(Table::Micros(concatenated[i].create_ns));
      row.push_back(Table::Micros(concatenated[i].readdir_ns));
      row.push_back(Table::Num(concatenated[i].bytes_per_create, 0));
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    row.push_back(Table::Micros(per_entry[i].create_ns));
    row.push_back(Table::Micros(per_entry[i].readdir_ns));
    row.push_back(Table::Num(per_entry[i].bytes_per_create, 0));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nPer-entry create cost at %zu entries / at %zu: %.2fx (gate: <= 2x).\n"
      "The concatenated value makes create and its logged bytes linear in\n"
      "directory size; a record costs one B+-tree insert at any size.\n",
      sizes.back(), sizes.front(),
      per_entry.back().create_ns / per_entry.front().create_ns);
  return 0;
}
