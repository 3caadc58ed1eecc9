// Fault-injecting KV decorator.
//
// Wraps any kv::Kv and fails Put / PatchValue with kIo according to the
// process fault plane (net::FaultInjector, the kv_put_fail= / kv_fail_after=
// knobs of --fault-spec).  Reads, deletes and scans pass through untouched.
//
// This is how torn multi-key sequences are provoked on demand: LocoFS
// metadata mutations write several keys in a fixed order (file content part
// → access part → dirent append; d-inode → dirent append), so failing the
// Nth put leaves the earlier keys applied — exactly the crash-consistency
// states (dangling dirents, orphaned inodes) the paper accepts and
// loco_fsck repairs.  Services see a clean kIo status and run their
// documented rollbacks; chaos tests verify the rollback paths, and
// kv_fail_after= combined with crash_after= produces the un-rolled-back
// states fsck must handle.
#pragma once

#include <memory>

#include "kvstore/kv.h"
#include "net/fault.h"

namespace loco::kv {

class FaultyKv final : public Kv {
 public:
  // `injector` is shared by the whole process fault plane; not owned, must
  // outlive this store.
  FaultyKv(std::unique_ptr<Kv> inner, net::FaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  Status Put(std::string_view key, std::string_view value) override {
    if (injector_->FailKvPut()) {
      return ErrStatus(ErrCode::kIo, "injected put failure");
    }
    return inner_->Put(key, value);
  }

  Status Get(std::string_view key, std::string* value) const override {
    return inner_->Get(key, value);
  }

  Status Delete(std::string_view key) override { return inner_->Delete(key); }

  bool Contains(std::string_view key) const override {
    return inner_->Contains(key);
  }

  Status PatchValue(std::string_view key, std::size_t offset,
                    std::string_view patch) override {
    if (injector_->FailKvPut()) {
      return ErrStatus(ErrCode::kIo, "injected patch failure");
    }
    return inner_->PatchValue(key, offset, patch);
  }

  Status ReadValueAt(std::string_view key, std::size_t offset, std::size_t len,
                     std::string* out) const override {
    return inner_->ReadValueAt(key, offset, len, out);
  }

  std::size_t Size() const override { return inner_->Size(); }

  Status ScanPrefix(std::string_view prefix, std::size_t limit,
                    std::vector<Entry>* out) const override {
    return inner_->ScanPrefix(prefix, limit, out);
  }

  Status VisitPrefix(std::string_view prefix, std::size_t limit,
                     const Visitor& fn) const override {
    return inner_->VisitPrefix(prefix, limit, fn);
  }

  void ForEach(const std::function<bool(std::string_view, std::string_view)>&
                   fn) const override {
    inner_->ForEach(fn);
  }

  bool Ordered() const noexcept override { return inner_->Ordered(); }

  KvStats stats() const noexcept override { return inner_->stats(); }
  void ResetStats() noexcept override { inner_->ResetStats(); }

  Kv* inner() noexcept { return inner_.get(); }

 private:
  std::unique_ptr<Kv> inner_;
  net::FaultInjector* injector_;
};

}  // namespace loco::kv
