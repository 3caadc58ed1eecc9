#include "core/gc.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "fs/wire.h"

namespace loco::core {

GcManager::GcManager(Options options)
    : options_(options),
      cycles_metric_(
          &common::MetricsRegistry::Default().GetCounter("gc.cycles")),
      ops_metric_(&common::MetricsRegistry::Default().GetCounter("gc.ops")),
      reclaimed_metric_(
          &common::MetricsRegistry::Default().GetCounter("gc.reclaimed")),
      throttle_ns_metric_(
          &common::MetricsRegistry::Default().GetCounter("gc.throttle_ns")) {}

GcManager::~GcManager() { Stop(); }

void GcManager::AddTask(std::string name, GcTaskFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.push_back(Task{std::move(name), std::move(fn)});
}

void GcManager::SetLoadSignal(LoadSignal signal) {
  std::lock_guard<std::mutex> lock(mu_);
  load_signal_ = std::move(signal);
}

double GcManager::PacingFactorLocked() const {
  if (!load_signal_) return 1.0;
  const common::Nanos delay = load_signal_();
  if (delay <= kLoadLowNs) return 1.0;
  if (delay >= kLoadHighNs) return kLoadMinFactor;
  // Linear ramp between the watermarks.
  const double t = static_cast<double>(delay - kLoadLowNs) /
                   static_cast<double>(kLoadHighNs - kLoadLowNs);
  return 1.0 - t * (1.0 - kLoadMinFactor);
}

double GcManager::CurrentPacingFactor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PacingFactorLocked();
}

void GcManager::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void GcManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool GcManager::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void GcManager::Loop() {
  // Token bucket: refilled at ops_per_sec, capped at a few batches of burst.
  // Steps may overdraw (a harvest pass costs what the store holds); the debt
  // is slept off before the next step runs, which is exactly the rate
  // guarantee we want.
  double tokens = options_.batch_ops;
  const double cap = std::max(4.0 * options_.batch_ops, 1.0);
  common::Nanos last_refill = common::CpuTimer::Now();
  std::size_t next_task = 0;
  std::size_t idle_streak = 0;

  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const common::Nanos now = common::CpuTimer::Now();
    // Adaptive pacing: scale the refill rate by the serving-load factor so a
    // saturated foreground (queueing admission delay) starves housekeeping
    // first, and an idle one restores the configured rate.
    const double rate = options_.ops_per_sec * PacingFactorLocked();
    if (rate > 0) {
      tokens = std::min(cap, tokens + common::ToSeconds(now - last_refill) * rate);
    } else if (options_.ops_per_sec <= 0) {
      tokens = cap;  // unthrottled configuration
    }
    last_refill = now;

    if (tasks_.empty()) {
      cv_.wait_for(lock, std::chrono::nanoseconds(kIdleSleepNs));
      continue;
    }
    if (tokens < 1.0) {
      // Throttled: sleep until roughly one batch of tokens accrues at the
      // current (possibly load-scaled) rate.
      const double deficit = options_.batch_ops - tokens;
      const common::Nanos wait = std::min<common::Nanos>(
          kIdleSleepNs,
          static_cast<common::Nanos>(deficit / std::max(rate, 1e-9) *
                                     common::kSecond) + 1);
      throttle_ns_metric_->Add(static_cast<std::uint64_t>(wait));
      cv_.wait_for(lock, std::chrono::nanoseconds(wait));
      continue;
    }
    if (idle_streak >= tasks_.size()) {
      // A full round found no work; back off before polling the stores again.
      idle_streak = 0;
      cv_.wait_for(lock, std::chrono::nanoseconds(kIdleSleepNs));
      continue;
    }

    const std::uint32_t budget = static_cast<std::uint32_t>(
        std::min<double>(options_.batch_ops, tokens));
    const std::size_t index = next_task;
    next_task = (next_task + 1) % tasks_.size();
    if (next_task == 0) {
      ++cycles_;
      cycles_metric_->Add();
    }
    GcTaskFn fn = tasks_[index].fn;

    lock.unlock();
    const GcStepResult result = fn(budget);
    lock.lock();

    tasks_[index].calls += 1;
    tasks_[index].ops += result.ops;
    tasks_[index].reclaimed += result.reclaimed;
    total_ops_ += result.ops;
    total_reclaimed_ += result.reclaimed;
    ops_metric_->Add(result.ops);
    reclaimed_metric_->Add(result.reclaimed);
    tokens -= std::max<std::uint32_t>(result.ops, 1);
    idle_streak = result.ops == 0 ? idle_streak + 1 : 0;
  }
}

GcManager::Status GcManager::GetStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  Status status;
  status.running = running_;
  status.cycles = cycles_;
  status.ops = total_ops_;
  status.reclaimed = total_reclaimed_;
  status.tasks.reserve(tasks_.size());
  for (const Task& task : tasks_) {
    status.tasks.push_back(
        TaskStatus{task.name, task.calls, task.ops, task.reclaimed});
  }
  return status;
}

net::RpcResponse GcManager::StatusReply(const GcManager* gc) {
  if (gc == nullptr) return net::RpcResponse{ErrCode::kUnavailable, {}};
  return net::RpcResponse{ErrCode::kOk, gc->StatusPayload()};
}

std::string GcManager::StatusPayload() const {
  const Status status = GetStatus();
  std::vector<std::string> entries;
  entries.reserve(status.tasks.size());
  for (const TaskStatus& task : status.tasks) {
    entries.push_back(fs::Pack(task.name, task.calls, task.ops, task.reclaimed));
  }
  return fs::Pack(static_cast<std::uint8_t>(status.running ? 1 : 0),
                  status.cycles, status.ops, status.reclaimed, entries);
}

Result<GcManager::Status> GcManager::ParseStatusPayload(
    std::string_view payload) {
  std::uint8_t running = 0;
  Status status;
  std::vector<std::string> entries;
  if (!fs::Unpack(payload, running, status.cycles, status.ops,
                  status.reclaimed, entries)) {
    return {ErrCode::kCorruption, "bad gc status payload"};
  }
  status.running = running != 0;
  for (const std::string& entry : entries) {
    TaskStatus task;
    if (!fs::Unpack(entry, task.name, task.calls, task.ops, task.reclaimed)) {
      return {ErrCode::kCorruption, "bad gc status entry"};
    }
    status.tasks.push_back(std::move(task));
  }
  return status;
}

namespace {

// Scan entries a view holds: the op cost of a GC harvest.
std::size_t Items(const ScanView& view) {
  std::size_t n = view.dir_by_path.size() + view.dms_dirents.size() +
                  view.intents.size();
  for (const auto& fms : view.fms) n += fms.files.size() + fms.dirents.size();
  for (const auto& store : view.objects) n += store.size();
  return n;
}

}  // namespace

GcStepper::GcStepper(ServerRole role, const std::string& metrics_prefix)
    : role_(role) {
  using T = FsckFindingType;
  static constexpr struct {
    T type;
    ServerRole role;
    const char* suffix;
  } kCounters[] = {
      {T::kMissingParent, ServerRole::kDms, "i1_parents_recreated"},
      {T::kDanglingDmsDirent, ServerRole::kDms, "i2_dirents_dropped"},
      {T::kDeadDirentList, ServerRole::kDms, "i3_lists_dropped"},
      {T::kOrphanDir, ServerRole::kDms, "i4_dirents_added"},
      {T::kOrphanFile, ServerRole::kFms, "i5_orphans_purged"},
      {T::kMissingFmsDirent, ServerRole::kFms, "i6_dirents_added"},
      {T::kDanglingFmsDirent, ServerRole::kFms, "i7_dirents_dropped"},
      {T::kLeakedObject, ServerRole::kObj, "i9_objects_purged"},
  };
  auto& registry = common::MetricsRegistry::Default();
  for (const auto& c : kCounters) {
    if (c.role == role) {
      counters_[c.type] = &registry.GetCounter(metrics_prefix + "." + c.suffix);
    }
  }
}

GcStepResult GcStepper::Step(std::uint32_t budget, net::RpcHandler& self,
                             const std::function<Status(ScanView*)>& scan,
                             const UuidProbe& probe) {
  GcStepResult result;
  while (!queue_.empty() && result.ops < budget) {
    const Pending p = std::move(queue_.front());
    queue_.pop_front();
    result.ops += 1;
    const net::RpcResponse resp =
        self.HandleCtx(p.opcode, p.payload, net::HandlerContext{});
    if (ClassifyRepair(p.opcode, resp) == RepairOutcome::kApplied) {
      result.reclaimed += 1;
      if (p.counter != nullptr) p.counter->Add();
    }
  }
  if (!queue_.empty() || result.ops >= budget) return result;

  ScanView view;
  const Status scanned = scan(&view);
  result.ops += static_cast<std::uint32_t>(Items(view) + 1);
  if (!scanned.ok()) return result;
  // I5 needs the DMS's word on the files' parent directories, I9 the FMSes'
  // on the objects' file uuids.  Without an answer (no probe, an error, a
  // malformed reply) liveness stays unknown: "unreachable" is never "dead".
  if (role_ != ServerRole::kDms) {
    std::set<std::uint64_t> ask;
    for (const auto& fms : view.fms) {
      for (const auto& [key, file_uuid] : fms.files) ask.insert(key.first);
    }
    for (const auto& store : view.objects) {
      for (const auto& [uuid, blocks] : store) ask.insert(uuid);
    }
    std::vector<fs::Uuid> uuids;
    for (const std::uint64_t raw : ask) uuids.push_back(fs::Uuid(raw));
    result.ops += static_cast<std::uint32_t>(uuids.size());
    const auto alive = probe && !uuids.empty()
                           ? probe(uuids)
                           : Result<std::vector<std::uint8_t>>(
                                 ErrCode::kUnavailable);
    if (alive.ok() && alive->size() == uuids.size()) {
      auto& live = role_ == ServerRole::kFms ? view.live_dirs : view.live_files;
      live.emplace();
      for (std::size_t i = 0; i < uuids.size(); ++i) {
        if ((*alive)[i] != 0) live->insert(uuids[i].raw());
      }
    }
  }
  // The dirent repairs (I2, I4, I6, I7) re-check their finding under the
  // serving locks and kDmsMkdir refuses an existing path (I1); the purges
  // (I3, I5, I9) cannot re-check, so they wait for a second sighting.
  const std::vector<FsckFinding> act = sightings_.Confirm(
      Detect(view, shards_), [](FsckFindingType type) {
        return type == FsckFindingType::kDeadDirentList ||
               type == FsckFindingType::kOrphanFile ||
               type == FsckFindingType::kLeakedObject;
      });
  for (const FsckFinding& f : act) {
    const auto counter = counters_.find(f.type);
    for (RepairCall& call : RepairCalls(f, shards_, 0)) {
      if (call.role != role_) continue;
      queue_.push_back(Pending{
          counter != counters_.end() ? counter->second : nullptr, call.opcode,
          std::move(call.payload)});
    }
  }
  return result;
}

}  // namespace loco::core
