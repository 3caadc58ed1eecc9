#include "net/dedup.h"

namespace loco::net {

DedupWindow::DedupWindow(std::vector<std::uint16_t> opcodes)
    : opcodes_(opcodes.begin(), opcodes.end()),
      replays_metric_(&common::MetricsRegistry::Default().GetCounter(
          "rpc.tcp_server.dedup.replays")) {}

std::string DedupWindow::Key(const wire::FrameHeader& header,
                             std::string_view payload) {
  std::string key;
  key.reserve(10 + payload.size());
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(static_cast<char>((header.trace_id >> shift) & 0xFF));
  }
  key.push_back(static_cast<char>(header.opcode & 0xFF));
  key.push_back(static_cast<char>((header.opcode >> 8) & 0xFF));
  key.append(payload.data(), payload.size());
  return key;
}

DedupWindow::Outcome DedupWindow::Begin(std::string key, ErrCode* code,
                                        std::string* payload, Slot* slot,
                                        Wait wait) {
  StoredKey stored{std::move(key)};
  stored.hash = std::hash<std::string_view>()(stored.bytes);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // try_emplace leaves `stored` untouched when the key is already present.
    auto [it, inserted] = entries_.try_emplace(std::move(stored));
    if (inserted) {
      *slot = &*it;
      return Outcome::kExecute;
    }
    if (it->second.done) {
      *code = it->second.code;
      *payload = it->second.payload;
      replays_.fetch_add(1, std::memory_order_relaxed);
      replays_metric_->Add();
      return Outcome::kReplay;
    }
    // The owner is still executing this key.  Returning kExecute would let
    // the caller re-run the handler concurrently, which is exactly the
    // double-apply this window exists to prevent: either say so without
    // waiting, or wait for the owner's completion.  The loop re-probes after
    // waking: if the entry was evicted in between, the cached response is
    // gone and the only option left is to execute.
    if (wait == Wait::kNo) return Outcome::kRunning;
    cv_.wait(lock);
  }
}

void DedupWindow::Complete(Slot slot, ErrCode code, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  slot->second.done = true;
  slot->second.code = code;
  slot->second.payload.assign(payload.data(), payload.size());
  completed_.push_back(&slot->first);
  while (completed_.size() > kCapacity) {
    // Look the key up before erasing: erase(key) would compare against the
    // very key it destroys.
    entries_.erase(entries_.find(*completed_.front()));
    completed_.pop_front();
  }
  cv_.notify_all();
}

}  // namespace loco::net
