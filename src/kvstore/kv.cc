#include "kvstore/kv.h"

#include "kvstore/btree_kv.h"
#include "kvstore/hash_kv.h"
#include "kvstore/lsm_kv.h"

namespace loco::kv {

Status Kv::PatchValue(std::string_view key, std::size_t offset,
                      std::string_view patch) {
  // Generic fallback: whole-value read-modify-write.  This is precisely the
  // cost profile the paper ascribes to coupled / LSM-stored inodes — stores
  // with in-place values (hash, btree) override this with a real patch.
  stats_.patches += 1;
  std::string value;
  LOCO_RETURN_IF_ERROR(Get(key, &value));
  if (offset + patch.size() > value.size()) {
    return ErrStatus(ErrCode::kInvalid, "patch out of range");
  }
  value.replace(offset, patch.size(), patch);
  return Put(key, value);
}

Status Kv::ReadValueAt(std::string_view key, std::size_t offset, std::size_t len,
                       std::string* out) const {
  std::string value;
  LOCO_RETURN_IF_ERROR(Get(key, &value));
  if (offset + len > value.size()) {
    return ErrStatus(ErrCode::kInvalid, "read out of range");
  }
  out->assign(value, offset, len);
  return OkStatus();
}

Status Kv::VisitPrefix(std::string_view prefix, std::size_t limit,
                       const Visitor& fn) const {
  std::vector<Entry> entries;
  LOCO_RETURN_IF_ERROR(ScanPrefix(prefix, limit, &entries));
  for (const auto& [key, value] : entries) {
    if (!fn(key, value)) break;
  }
  return OkStatus();
}

std::string_view KvBackendName(KvBackend backend) noexcept {
  switch (backend) {
    case KvBackend::kHash: return "hash";
    case KvBackend::kBTree: return "btree";
    case KvBackend::kLsm: return "lsm";
  }
  return "?";
}

std::vector<common::MetricsRegistry::GaugeHandle> RegisterKvStatsGauges(
    common::MetricsRegistry* registry, const std::string& prefix,
    std::function<KvStats()> fn) {
  // One shared snapshot closure; each gauge projects a single field.
  const auto shared = std::make_shared<std::function<KvStats()>>(std::move(fn));
  struct Field {
    const char* name;
    std::uint64_t KvStats::*member;
  };
  static constexpr Field kFields[] = {
      {"gets", &KvStats::gets},
      {"puts", &KvStats::puts},
      {"deletes", &KvStats::deletes},
      {"patches", &KvStats::patches},
      {"scans", &KvStats::scans},
      {"scan_items", &KvStats::scan_items},
      {"bytes_read", &KvStats::bytes_read},
      {"bytes_written", &KvStats::bytes_written},
      {"io_ops", &KvStats::io_ops},
      {"io_bytes", &KvStats::io_bytes},
  };
  std::vector<common::MetricsRegistry::GaugeHandle> handles;
  handles.reserve(std::size(kFields));
  for (const Field& field : kFields) {
    handles.push_back(registry->RegisterGauge(
        prefix + "." + field.name, [shared, member = field.member] {
          return static_cast<double>((*shared)().*member);
        }));
  }
  return handles;
}

Result<std::unique_ptr<Kv>> MakeKv(KvBackend backend, const KvOptions& options) {
  switch (backend) {
    case KvBackend::kHash: {
      auto kv = std::make_unique<HashKV>(options);
      LOCO_RETURN_IF_ERROR(kv->Open());
      return std::unique_ptr<Kv>(std::move(kv));
    }
    case KvBackend::kBTree: {
      auto kv = std::make_unique<BTreeKV>(options);
      LOCO_RETURN_IF_ERROR(kv->Open());
      return std::unique_ptr<Kv>(std::move(kv));
    }
    case KvBackend::kLsm: {
      auto kv = std::make_unique<LsmKV>(options);
      LOCO_RETURN_IF_ERROR(kv->Open());
      return std::unique_ptr<Kv>(std::move(kv));
    }
  }
  return ErrStatus(ErrCode::kInvalid, "unknown backend");
}

}  // namespace loco::kv
