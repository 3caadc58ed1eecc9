// Background garbage collection for the housekeeping plane
// (docs/HOUSEKEEPING.md).
//
// fsck (core/fsck.h) repairs the namespace invariants with cluster-wide
// scans; a serving cluster never gets to stop.  GcManager runs the same
// invariant engine (core/invariants.h) *incrementally*: one thread per
// daemon round-robins small GC steps under a token bucket (configurable
// ops/sec and batch size), so housekeeping load is a bounded, tunable tax on
// the serving hot path instead of an outage.
//
// The manager is generic — daemons register named step callbacks.  A step
// receives an op budget and returns how many ops it actually spent (scan
// items + repairs; spending can overshoot the budget, the bucket goes into
// debt and the loop sleeps it off).  Each server's step (GcStep on the DMS,
// FMS and OSD) is a GcStepper over its own scan: it Detects the invariants
// whose inputs the server holds (DMS I1–I4, FMS I5–I7, OSD I9) and applies
// the repairs through its own handler with the admin RPCs fsck sends, which
// re-check the dirent findings under the serving locks — a GC repair never
// races a legitimate in-flight mutation.
//
// Cross-server invariants (I5: orphan files under dead directories; I9:
// leaked objects) need a remote liveness check, passed in as a UuidProbe.
// Their reclaims are destructive and cannot be re-checked locally, so, like
// I3, they require the candidate to be seen in two consecutive GC harvests
// before purging — a probe that raced a concurrent create cannot cost data.
//
// Adaptive pacing (docs/OVERLOAD.md): a daemon can hand the manager a load
// signal — its TcpServer's recent admission-queue delay.  While foreground
// traffic queues (delay at or above kLoadHighNs) the token refill collapses
// toward kLoadMinFactor, so housekeeping yields the machine to the serving
// path; once the delay falls back below kLoadLowNs GC resumes its
// configured rate.  The extra waiting shows up in gc.throttle_ns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/invariants.h"
#include "fs/types.h"
#include "net/rpc.h"

namespace loco::core {

// One GC step: spend up to `budget` ops, report what was actually spent and
// how many orphans were reclaimed.
struct GcStepResult {
  std::uint32_t ops = 0;
  std::uint32_t reclaimed = 0;
};
using GcTaskFn = std::function<GcStepResult(std::uint32_t budget)>;

// Batched remote liveness check: one byte per uuid, '\1' = alive.  Errors
// abort the dependent detector for this cycle (never treat "unreachable" as
// "dead").
using UuidProbe =
    std::function<Result<std::vector<std::uint8_t>>(const std::vector<fs::Uuid>&)>;

// One server's GC step engine, created on the server's first GcStep.
class GcStepper {
 public:
  // `role` is the stepping server's kind (repairs addressed to another kind
  // are skipped); its repair counters are <metrics_prefix>.iN_* .
  GcStepper(ServerRole role, const std::string& metrics_prefix);

  // Applies queued repairs through `self`, one op each, until the queue or
  // `budget` runs out.  With the queue drained and budget left it harvests:
  // `scan` fills a view of the server's stores, `probe` answers for the side
  // an FMS (directory uuids) or an OSD (file uuids) cannot see, Detect runs
  // over the view, and the repairs of the findings that re-check themselves
  // or were also seen by the previous harvest join the queue.  I10 findings
  // are left to the rename intent resolver.
  GcStepResult Step(std::uint32_t budget, net::RpcHandler& self,
                    const std::function<Status(ScanView*)>& scan,
                    const UuidProbe& probe = nullptr);

 private:
  struct Pending {
    common::Counter* counter;  // null for types this role never repairs
    std::uint16_t opcode;
    std::string payload;
  };

  const ServerRole role_;
  const ShardMap shards_{1};
  std::map<FsckFindingType, common::Counter*> counters_;
  std::deque<Pending> queue_;
  Sightings sightings_;
};

class GcManager {
 public:
  struct Options {
    double ops_per_sec = 2000.0;       // sustained scan+repair rate
    std::uint32_t batch_ops = 64;      // max ops granted to one step call
  };

  // Longest sleep of an idle or throttled loop.
  static constexpr common::Nanos kIdleSleepNs = 100 * common::kMilli;
  // Adaptive pacing against the load signal (no effect without one): queue
  // delay >= kLoadHighNs scales the refill rate by kLoadMinFactor, <=
  // kLoadLowNs restores full rate, and in between it ramps linearly.
  static constexpr common::Nanos kLoadHighNs = common::kMilli;
  static constexpr common::Nanos kLoadLowNs = 50 * common::kMicro;
  static constexpr double kLoadMinFactor = 0.1;

  struct TaskStatus {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t ops = 0;
    std::uint64_t reclaimed = 0;
  };
  struct Status {
    bool running = false;
    std::uint64_t cycles = 0;     // completed round-robin rounds
    std::uint64_t ops = 0;        // total ops spent
    std::uint64_t reclaimed = 0;  // total orphans reclaimed
    std::vector<TaskStatus> tasks;
  };

  GcManager() : GcManager(Options()) {}
  explicit GcManager(Options options);
  ~GcManager();

  GcManager(const GcManager&) = delete;
  GcManager& operator=(const GcManager&) = delete;

  // Register a step before Start().
  void AddTask(std::string name, GcTaskFn fn);

  // Serving-load signal for adaptive pacing: sampled once per loop
  // iteration; must be cheap and thread-safe (daemons pass their server's
  // RecentQueueDelayNs).  Set before Start().
  using LoadSignal = std::function<common::Nanos()>;
  void SetLoadSignal(LoadSignal signal);

  // Current pacing factor in [kLoadMinFactor, 1]; 1 without a signal
  // (tests / loco_shell gc).
  double CurrentPacingFactor() const;

  void Start();
  void Stop();
  bool running() const;

  Status GetStatus() const;
  // kCtlGcStatus reply payload (layout in core/proto.h).
  std::string StatusPayload() const;
  // A server's kCtlGcStatus reply: kUnavailable without a manager (the
  // daemon runs without --gc).
  static net::RpcResponse StatusReply(const GcManager* gc);
  static Result<Status> ParseStatusPayload(std::string_view payload);

  const Options& options() const noexcept { return options_; }

 private:
  struct Task {
    std::string name;
    GcTaskFn fn;
    std::uint64_t calls = 0;
    std::uint64_t ops = 0;
    std::uint64_t reclaimed = 0;
  };

  void Loop();
  double PacingFactorLocked() const;

  const Options options_;
  LoadSignal load_signal_;  // set before Start(); read under mu_
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> tasks_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
  std::uint64_t cycles_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_reclaimed_ = 0;

  common::Counter* cycles_metric_;
  common::Counter* ops_metric_;
  common::Counter* reclaimed_metric_;
  common::Counter* throttle_ns_metric_;
};

}  // namespace loco::core
