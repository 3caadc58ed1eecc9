#include "net/fault.h"

#include <cstdlib>

#include "common/flags.h"

namespace loco::net {

namespace {

bool ParseDouble(std::string_view text, double* out) {
  // std::from_chars<double> is spotty across standard libraries; strtod on a
  // bounded copy is fine for a flag parser.
  std::string copy(text);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

bool ParseProbability(std::string_view text, double* out) {
  return ParseDouble(text, out) && *out >= 0.0 && *out <= 1.0;
}

}  // namespace

Result<FaultSpec> FaultSpec::Parse(std::string_view text) {
  FaultSpec spec;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Result<FaultSpec>(ErrCode::kInvalid,
                               "fault-spec item needs key=value: " +
                                   std::string(item));
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    bool ok = true;
    if (key == "seed") {
      ok = common::ParseInt(value, &spec.seed);
    } else if (key == "drop") {
      ok = ParseProbability(value, &spec.drop);
    } else if (key == "dup") {
      ok = ParseProbability(value, &spec.dup);
    } else if (key == "delay") {
      ok = ParseProbability(value, &spec.delay);
    } else if (key == "delay_ms") {
      std::uint64_t ms = 0;
      ok = common::ParseInt(value, &ms);
      spec.delay_ns = static_cast<common::Nanos>(ms) * common::kMilli;
    } else if (key == "reset") {
      ok = ParseProbability(value, &spec.reset);
    } else if (key == "short_write") {
      ok = ParseProbability(value, &spec.short_write);
    } else if (key == "crash_after") {
      ok = common::ParseInt(value, &spec.crash_after);
    } else if (key == "kv_put_fail") {
      ok = ParseProbability(value, &spec.kv_put_fail);
    } else if (key == "kv_fail_after") {
      ok = common::ParseInt(value, &spec.kv_fail_after);
    } else if (key == "notify_drop") {
      ok = ParseProbability(value, &spec.notify_drop);
    } else if (key == "notify_dup") {
      ok = ParseProbability(value, &spec.notify_dup);
    } else if (key == "queue_full") {
      ok = ParseProbability(value, &spec.queue_full);
    } else {
      return Result<FaultSpec>(ErrCode::kInvalid,
                               "unknown fault-spec key: " + std::string(key));
    }
    if (!ok) {
      return Result<FaultSpec>(ErrCode::kInvalid,
                               "bad fault-spec value: " + std::string(item));
    }
  }
  return spec;
}

bool FaultSpec::Armed() const noexcept {
  return drop > 0 || dup > 0 || delay > 0 || reset > 0 || short_write > 0 ||
         crash_after > 0 || kv_put_fail > 0 || kv_fail_after > 0 ||
         notify_drop > 0 || notify_dup > 0 || queue_full > 0;
}

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  auto& reg = common::MetricsRegistry::Default();
  drop_count_ = &reg.GetCounter("faults.injected.drop");
  dup_count_ = &reg.GetCounter("faults.injected.dup");
  delay_count_ = &reg.GetCounter("faults.injected.delay");
  reset_count_ = &reg.GetCounter("faults.injected.reset");
  short_write_count_ = &reg.GetCounter("faults.injected.short_write");
  crash_count_ = &reg.GetCounter("faults.injected.crash");
  kv_put_fail_count_ = &reg.GetCounter("faults.injected.kv_put_fail");
  notify_drop_count_ = &reg.GetCounter("faults.injected.notify_drop");
  notify_dup_count_ = &reg.GetCounter("faults.injected.notify_dup");
  queue_full_count_ = &reg.GetCounter("faults.injected.queue_full");
}

FaultInjector::FrameFate FaultInjector::OnServerFrame() {
  FrameFate fate;
  std::lock_guard<std::mutex> lock(mu_);
  ++frames_;
  if (spec_.crash_after > 0 && frames_ >= spec_.crash_after) {
    crash_count_->Add();
    fate.crash = true;
    return fate;
  }
  if (spec_.reset > 0 && rng_.Chance(spec_.reset)) {
    reset_count_->Add();
    fate.reset = true;
    return fate;
  }
  if (spec_.drop > 0 && rng_.Chance(spec_.drop)) {
    drop_count_->Add();
    fate.drop = true;
    return fate;
  }
  if (spec_.dup > 0 && rng_.Chance(spec_.dup)) {
    dup_count_->Add();
    fate.dup = true;
  }
  if (spec_.delay > 0 && rng_.Chance(spec_.delay)) {
    delay_count_->Add();
    fate.delay_ns = spec_.delay_ns;
  }
  return fate;
}

bool FaultInjector::ShortWriteResponse() {
  if (spec_.short_write <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Chance(spec_.short_write)) return false;
  short_write_count_->Add();
  return true;
}

FaultInjector::NotifyFate FaultInjector::OnNotifyFrame() {
  NotifyFate fate;
  if (spec_.notify_drop <= 0 && spec_.notify_dup <= 0) return fate;
  std::lock_guard<std::mutex> lock(mu_);
  if (spec_.notify_drop > 0 && rng_.Chance(spec_.notify_drop)) {
    notify_drop_count_->Add();
    fate.drop = true;
    return fate;
  }
  if (spec_.notify_dup > 0 && rng_.Chance(spec_.notify_dup)) {
    notify_dup_count_->Add();
    fate.dup = true;
  }
  return fate;
}

bool FaultInjector::ForceQueueFull() {
  if (spec_.queue_full <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Chance(spec_.queue_full)) return false;
  queue_full_count_->Add();
  return true;
}

bool FaultInjector::FailKvPut() {
  if (spec_.kv_put_fail <= 0 && spec_.kv_fail_after == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++kv_puts_;
  if (spec_.kv_fail_after > 0 && kv_puts_ > spec_.kv_fail_after) {
    kv_put_fail_count_->Add();
    return true;
  }
  if (spec_.kv_put_fail > 0 && rng_.Chance(spec_.kv_put_fail)) {
    kv_put_fail_count_->Add();
    return true;
  }
  return false;
}

}  // namespace loco::net
