#include "kvstore/lsm_kv.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/codec.h"
#include "common/hash.h"
#include "kvstore/wal_records.h"

namespace loco::kv {

namespace fsys = std::filesystem;

void BloomFilter::Build(const std::vector<std::string>& keys) {
  nbits_ = std::max<std::size_t>(64, keys.size() * 10);
  bits_.assign((nbits_ + 63) / 64, 0);
  for (const std::string& k : keys) {
    const std::uint64_t h1 = common::Fnv1a64(k);
    const std::uint64_t h2 = common::WyMix(k, 0x5107a);
    for (int i = 0; i < 6; ++i) {
      const std::size_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % nbits_;
      bits_[bit >> 6] |= 1ULL << (bit & 63);
    }
  }
}

bool BloomFilter::MayContain(std::string_view key) const noexcept {
  if (nbits_ == 0) return false;
  const std::uint64_t h1 = common::Fnv1a64(key);
  const std::uint64_t h2 = common::WyMix(key, 0x5107a);
  for (int i = 0; i < 6; ++i) {
    const std::size_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % nbits_;
    if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

LsmKV::LsmKV(const KvOptions& options) : options_(options) {}

std::string LsmKV::RunPath(std::uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "/run_%08llu.sst",
                static_cast<unsigned long long>(seq));
  return options_.dir + name;
}

Status LsmKV::Open() {
  if (options_.dir.empty()) return OkStatus();
  LOCO_RETURN_IF_ERROR(LoadRuns());
  const std::string path = options_.dir + "/lsmkv.wal";
  replaying_ = true;
  auto replayed = walrec::Replay(path, [this](const walrec::Record& rec) {
    if (rec.op == walrec::kOpPut) {
      (void)Write(rec.key, rec.value);
    } else if (rec.op == walrec::kOpDelete) {
      (void)Write(rec.key, std::nullopt);
    }
  });
  replaying_ = false;
  if (!replayed.ok()) return replayed.status();
  return wal_.Open(path, options_.sync_writes);
}

Status LsmKV::LoadRuns() {
  std::error_code ec;
  if (!fsys::exists(options_.dir, ec)) return OkStatus();
  std::vector<fsys::path> files;
  for (const auto& entry : fsys::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == ".sst") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // run_%08u sorts by sequence
  for (const auto& path : files) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return ErrStatus(ErrCode::kIo, "cannot open " + path.string());
    std::fseek(f, 0, SEEK_END);
    const long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::string blob(static_cast<std::size_t>(len), '\0');
    if (std::fread(blob.data(), 1, blob.size(), f) != blob.size()) {
      std::fclose(f);
      return ErrStatus(ErrCode::kIo, "short read " + path.string());
    }
    std::fclose(f);
    common::Reader r(blob);
    Run run;
    const std::uint32_t count = r.GetU32();
    run.keys.reserve(count);
    run.vals.reserve(count);
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      const bool tombstone = r.GetU8() != 0;
      std::string key(r.GetBytes());
      if (tombstone) {
        run.vals.emplace_back(std::nullopt);
      } else {
        run.vals.emplace_back(std::string(r.GetBytes()));
      }
      run.keys.push_back(std::move(key));
    }
    if (!r.ok()) return ErrStatus(ErrCode::kCorruption, path.string());
    run.bloom.Build(run.keys);
    // Recover the sequence number from the file name.
    const std::string stem = path.stem().string();  // "run_%08u"
    run.seq = std::strtoull(stem.c_str() + 4, nullptr, 10);
    next_seq_ = std::max(next_seq_, run.seq + 1);
    runs_.push_back(std::move(run));
  }
  return OkStatus();
}

Status LsmKV::PersistRun(const Run& run) {
  // Runs are serialized (and the traffic accounted) regardless of the
  // persistence mode — see the note in Write().
  common::Writer w;
  w.PutU32(static_cast<std::uint32_t>(run.keys.size()));
  for (std::size_t i = 0; i < run.keys.size(); ++i) {
    w.PutU8(run.vals[i].has_value() ? 0 : 1);
    w.PutBytes(run.keys[i]);
    if (run.vals[i].has_value()) w.PutBytes(*run.vals[i]);
  }
  if (options_.dir.empty()) {
    stats_.io_ops += 1;
    stats_.io_bytes += w.size();
    return OkStatus();
  }
  const std::string path = RunPath(run.seq);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrStatus(ErrCode::kIo, "cannot create " + path);
  const bool write_ok = std::fwrite(w.str().data(), 1, w.size(), f) == w.size();
  std::fclose(f);
  if (!write_ok) return ErrStatus(ErrCode::kIo, "short write " + path);
  stats_.io_ops += 1;
  stats_.io_bytes += w.size();
  return OkStatus();
}

Status LsmKV::Write(std::string_view key, std::optional<std::string_view> value) {
  if (!replaying_) {
    // The WAL record is encoded (and accounted) even in memory-only mode:
    // an LSM pays this serialization and log traffic on every write, which
    // is exactly the cost profile the IndexFS baseline models.
    const std::string rec = value.has_value() ? walrec::EncodePut(key, *value)
                                              : walrec::EncodeDelete(key);
    stats_.io_ops += 1;
    stats_.io_bytes += Wal::kHeaderBytes + rec.size();
    if (wal_.IsOpen()) LOCO_RETURN_IF_ERROR(wal_.Append(rec));
  }
  auto [it, inserted] = memtable_.try_emplace(std::string(key));
  if (!inserted) {
    memtable_bytes_ -= it->second.has_value() ? it->second->size() : 0;
  } else {
    memtable_bytes_ += key.size();
  }
  if (value.has_value()) {
    it->second = std::string(*value);
    memtable_bytes_ += value->size();
  } else {
    it->second = std::nullopt;
  }
  return MaybeFlush();
}

Status LsmKV::MaybeFlush() {
  if (memtable_bytes_ < options_.memtable_bytes) return OkStatus();
  return Flush();
}

Status LsmKV::Flush() {
  if (memtable_.empty()) return OkStatus();
  Run run;
  run.seq = next_seq_++;
  run.keys.reserve(memtable_.size());
  run.vals.reserve(memtable_.size());
  for (auto& [k, v] : memtable_) {
    run.keys.push_back(k);
    run.vals.push_back(std::move(v));
  }
  run.bloom.Build(run.keys);
  LOCO_RETURN_IF_ERROR(PersistRun(run));
  runs_.push_back(std::move(run));
  memtable_.clear();
  memtable_bytes_ = 0;
  if (wal_.IsOpen() && !replaying_) LOCO_RETURN_IF_ERROR(wal_.Truncate());
  if (runs_.size() > options_.max_runs) return Compact();
  return OkStatus();
}

Status LsmKV::Compact() {
  // Full merge: newest-wins across all runs, tombstones dropped (nothing
  // older remains to resurrect).
  std::map<std::string, std::optional<std::string>> merged;
  for (Run& run : runs_) {
    stats_.io_ops += 1;  // compaction reads each run back
    for (std::size_t i = 0; i < run.keys.size(); ++i) {
      stats_.io_bytes +=
          run.keys[i].size() + (run.vals[i] ? run.vals[i]->size() : 0);
      merged[std::move(run.keys[i])] = std::move(run.vals[i]);
    }
  }
  std::vector<std::uint64_t> old_seqs;
  old_seqs.reserve(runs_.size());
  for (const Run& run : runs_) old_seqs.push_back(run.seq);
  runs_.clear();

  Run out;
  out.seq = next_seq_++;
  for (auto& [k, v] : merged) {
    if (!v.has_value()) continue;  // drop tombstones
    out.keys.push_back(k);
    out.vals.push_back(std::move(v));
  }
  out.bloom.Build(out.keys);
  LOCO_RETURN_IF_ERROR(PersistRun(out));
  runs_.push_back(std::move(out));
  if (!options_.dir.empty()) {
    for (std::uint64_t seq : old_seqs) {
      std::error_code ec;
      fsys::remove(RunPath(seq), ec);
    }
  }
  return OkStatus();
}

Status LsmKV::Put(std::string_view key, std::string_view value) {
  stats_.puts += 1;
  stats_.bytes_written += key.size() + value.size();
  return Write(key, value);
}

Status LsmKV::Get(std::string_view key, std::string* value) const {
  stats_.gets += 1;
  if (const auto it = memtable_.find(std::string(key)); it != memtable_.end()) {
    if (!it->second.has_value()) return ErrStatus(ErrCode::kNotFound);
    *value = *it->second;
    stats_.bytes_read += value->size();
    return OkStatus();
  }
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    if (!run->bloom.MayContain(key)) continue;
    const auto it = std::lower_bound(run->keys.begin(), run->keys.end(), key);
    if (it == run->keys.end() || *it != key) continue;
    const std::size_t pos = static_cast<std::size_t>(it - run->keys.begin());
    if (!run->vals[pos].has_value()) return ErrStatus(ErrCode::kNotFound);
    *value = *run->vals[pos];
    stats_.bytes_read += value->size();
    return OkStatus();
  }
  return ErrStatus(ErrCode::kNotFound);
}

Status LsmKV::Delete(std::string_view key) {
  stats_.deletes += 1;
  // LSM deletes are blind tombstone writes; report kNotFound only if a read
  // confirms absence (callers in the FS layer rely on the error).
  std::string tmp;
  const bool existed = Get(key, &tmp).ok();
  stats_.gets -= 1;  // internal existence probe, not a caller-visible get
  LOCO_RETURN_IF_ERROR(Write(key, std::nullopt));
  return existed ? OkStatus() : ErrStatus(ErrCode::kNotFound);
}

std::size_t LsmKV::Size() const {
  std::map<std::string, std::optional<std::string>> merged;
  MergedView({}, {}, &merged);
  std::size_t n = 0;
  for (const auto& [k, v] : merged) {
    (void)k;
    if (v.has_value()) ++n;
  }
  return n;
}

void LsmKV::MergedView(
    std::string_view lo, std::string_view hi,
    std::map<std::string, std::optional<std::string>>* out) const {
  auto in_range = [&](const std::string& k) {
    return (lo.empty() || k >= lo) && (hi.empty() || k < hi);
  };
  for (const Run& run : runs_) {  // oldest first; later inserts overwrite
    auto it = lo.empty() ? run.keys.begin()
                         : std::lower_bound(run.keys.begin(), run.keys.end(), lo);
    for (; it != run.keys.end(); ++it) {
      if (!hi.empty() && *it >= hi) break;
      const std::size_t pos = static_cast<std::size_t>(it - run.keys.begin());
      (*out)[*it] = run.vals[pos];
    }
  }
  auto it = lo.empty() ? memtable_.begin()
                       : memtable_.lower_bound(std::string(lo));
  for (; it != memtable_.end(); ++it) {
    if (!in_range(it->first)) break;
    (*out)[it->first] = it->second;
  }
}

Status LsmKV::ScanPrefix(std::string_view prefix, std::size_t limit,
                         std::vector<Entry>* out) const {
  stats_.scans += 1;
  std::string hi(prefix);
  while (!hi.empty() && static_cast<unsigned char>(hi.back()) == 0xff) hi.pop_back();
  if (!hi.empty()) hi.back() = static_cast<char>(hi.back() + 1);
  std::map<std::string, std::optional<std::string>> merged;
  MergedView(prefix, hi, &merged);
  for (auto& [k, v] : merged) {
    if (!v.has_value()) continue;
    stats_.scan_items += 1;
    stats_.bytes_read += v->size();
    out->emplace_back(k, std::move(*v));
    if (limit != 0 && out->size() >= limit) break;
  }
  return OkStatus();
}

void LsmKV::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  stats_.scans += 1;
  std::map<std::string, std::optional<std::string>> merged;
  MergedView({}, {}, &merged);
  for (const auto& [k, v] : merged) {
    if (!v.has_value()) continue;
    stats_.scan_items += 1;
    if (!fn(k, *v)) return;
  }
}

}  // namespace loco::kv
