#include "net/dedup.h"

namespace loco::net {

DedupWindow::DedupWindow(std::vector<std::uint16_t> opcodes, Options options)
    : opcodes_(opcodes.begin(), opcodes.end()),
      options_(options),
      replays_(&common::MetricsRegistry::Default().GetCounter(
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

DedupWindow::Outcome DedupWindow::Begin(const std::string& key, ErrCode* code,
                                        std::string* payload) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) return Outcome::kExecute;
    if (it->second.done) {
      *code = it->second.code;
      *payload = it->second.payload;
      replays_->Add();
      return Outcome::kReplay;
    }
    // The owner is still executing this key.  Wait for its completion —
    // returning early would let the caller re-run the handler concurrently,
    // which is exactly the double-apply this window exists to prevent.  The
    // loop re-probes after waking: if the entry was evicted in between, the
    // cached response is gone and the only option left is to execute.
    cv_.wait(lock);
  }
}

void DedupWindow::Complete(const std::string& key, ErrCode code,
                           std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // evicted under pathological pressure
  // Queue each entry once, so every pointer in completed_ stays live until
  // its own eviction.
  if (!it->second.done) completed_.push_back(&it->first);
  it->second.done = true;
  it->second.code = code;
  it->second.payload.assign(payload.data(), payload.size());
  while (completed_.size() > options_.capacity) {
    // Look the key up before erasing: erase(key) would compare against the
    // very string it destroys.
    entries_.erase(entries_.find(*completed_.front()));
    completed_.pop_front();
  }
  cv_.notify_all();
}

}  // namespace loco::net
