#include "kvstore/striped_kv.h"

#include <algorithm>
#include <filesystem>

#include "common/hash.h"

namespace loco::kv {

namespace {

// Same hash + seed as HashRing::Locate (core/ring.cc): a key's stripe and
// its ring placement derive from one function.
constexpr std::uint64_t kRingSeed = 0xfeed;

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::size_t StripedKv::StripeOf(std::string_view key) const noexcept {
  if (route_prefix_ != 0) key = key.substr(0, route_prefix_);
  return common::WyMix(key, kRingSeed) & (stripes_.size() - 1);
}

const StripedKv::Stripe* StripedKv::PrefixStripe(
    std::string_view prefix) const noexcept {
  if (route_prefix_ == 0 || prefix.size() < route_prefix_) return nullptr;
  return stripes_[StripeOf(prefix)].get();
}

Status StripedKv::Put(std::string_view key, std::string_view value) {
  Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->Put(key, value);
}

Status StripedKv::Get(std::string_view key, std::string* value) const {
  const Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->Get(key, value);
}

Status StripedKv::Delete(std::string_view key) {
  Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->Delete(key);
}

bool StripedKv::Contains(std::string_view key) const {
  const Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->Contains(key);
}

Status StripedKv::PatchValue(std::string_view key, std::size_t offset,
                             std::string_view patch) {
  Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->PatchValue(key, offset, patch);
}

Status StripedKv::ReadValueAt(std::string_view key, std::size_t offset,
                              std::size_t len, std::string* out) const {
  const Stripe& s = *stripes_[StripeOf(key)];
  std::scoped_lock lock(s.mu);
  return s.kv->ReadValueAt(key, offset, len, out);
}

std::size_t StripedKv::Size() const {
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    std::scoped_lock lock(s->mu);
    total += s->kv->Size();
  }
  return total;
}

Status StripedKv::ScanPrefix(std::string_view prefix, std::size_t limit,
                             std::vector<Entry>* out) const {
  out->clear();
  if (const Stripe* s = PrefixStripe(prefix)) {
    std::scoped_lock lock(s->mu);
    return s->kv->ScanPrefix(prefix, limit, out);
  }
  for (const auto& s : stripes_) {
    std::vector<Entry> part;
    {
      std::scoped_lock lock(s->mu);
      // Each stripe may hold up to `limit` of the smallest matches.
      LOCO_RETURN_IF_ERROR(s->kv->ScanPrefix(prefix, limit, &part));
    }
    out->insert(out->end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  if (ordered_) {
    std::sort(out->begin(), out->end(),
              [](const Entry& a, const Entry& b) { return a.first < b.first; });
  }
  if (limit != 0 && out->size() > limit) out->resize(limit);
  return OkStatus();
}

Status StripedKv::VisitPrefix(std::string_view prefix, std::size_t limit,
                              const Visitor& fn) const {
  if (const Stripe* s = PrefixStripe(prefix)) {
    std::scoped_lock lock(s->mu);
    return s->kv->VisitPrefix(prefix, limit, fn);
  }
  // Matches may sit in every stripe: visit the merged copy.
  return Kv::VisitPrefix(prefix, limit, fn);
}

void StripedKv::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  bool stop = false;
  for (const auto& s : stripes_) {
    std::scoped_lock lock(s->mu);
    s->kv->ForEach([&](std::string_view key, std::string_view value) {
      if (!fn(key, value)) {
        stop = true;
        return false;
      }
      return true;
    });
    if (stop) return;
  }
}

KvStats StripedKv::stats() const noexcept {
  KvStats total;
  for (const auto& s : stripes_) {
    std::scoped_lock lock(s->mu);
    total = total + s->kv->stats();
  }
  return total;
}

void StripedKv::ResetStats() noexcept {
  for (const auto& s : stripes_) {
    std::scoped_lock lock(s->mu);
    s->kv->ResetStats();
  }
}

Result<std::unique_ptr<Kv>> MakeStripedKv(KvBackend backend,
                                          const KvOptions& options,
                                          std::size_t stripes,
                                          std::size_t route_prefix) {
  const std::size_t n = RoundUpPow2(std::max<std::size_t>(stripes, 1));
  auto striped = std::unique_ptr<StripedKv>(new StripedKv);
  striped->stripes_.reserve(n);
  striped->route_prefix_ = route_prefix;
  for (std::size_t i = 0; i < n; ++i) {
    KvOptions stripe_opt = options;
    if (!options.dir.empty()) {
      stripe_opt.dir = options.dir + "/stripe" + std::to_string(i);
      std::error_code ec;
      std::filesystem::create_directories(stripe_opt.dir, ec);
    }
    auto inner = MakeKv(backend, stripe_opt);
    LOCO_RETURN_IF_ERROR(inner.status());
    auto stripe = std::make_unique<StripedKv::Stripe>();
    stripe->kv = std::move(inner).value();
    striped->stripes_.push_back(std::move(stripe));
  }
  striped->ordered_ = striped->stripes_.front()->kv->Ordered();
  return std::unique_ptr<Kv>(std::move(striped));
}

}  // namespace loco::kv
