#ifndef JETSIM_CORE_RESTART_POLICY_H_
#define JETSIM_CORE_RESTART_POLICY_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/backoff.h"
#include "common/clock.h"
#include "obs/metrics_registry.h"

namespace jet::core {

/// Heartbeat thresholds of failure detection. The defaults are the
/// in-process cluster's; process mode sets its own.
struct LivenessOptions {
  /// Cadence at which members heartbeat.
  Nanos heartbeat_interval = 15 * kNanosPerMilli;
  /// Heartbeat age past which a member is suspect.
  Nanos suspect_after = 45 * kNanosPerMilli;
  /// Heartbeat age past which a member is dead.
  Nanos dead_after = 120 * kNanosPerMilli;
};

enum class Liveness { kFresh, kSuspect, kDead };

/// The suspect -> dead rule of both runtimes, over the age of the last
/// heartbeat: suspect strictly past `suspect_after`, dead strictly past
/// `dead_after`. A fresh heartbeat resets the age, which refutes a
/// suspicion.
inline Liveness JudgeHeartbeat(Nanos age, const LivenessOptions& options) {
  if (age > options.dead_after) return Liveness::kDead;
  if (age > options.suspect_after) return Liveness::kSuspect;
  return Liveness::kFresh;
}

/// Lifecycle state of a job (§4.4's autonomous recovery story):
///
///                 failure (budget left)
///   RUNNING ───────────────────────────▶ RESTARTING ──▶ RUNNING
///      │                                    │  ▲
///      │ quorum lost                        │  │ quorum lost / heal
///      ▼                                    ▼  │
///   SUSPENDED ──────────────────────────▶ RESTARTING
///                  quorum restored
///
///   RUNNING/RESTARTING ──(budget exhausted)──▶ FAILED      (terminal)
///   RUNNING ──(sources exhausted)────────────▶ COMPLETED   (terminal)
enum class JobState : int64_t {
  kRunning = 1,
  kSuspended = 2,
  kRestarting = 3,
  kFailed = 4,
  kCompleted = 5,
};

const char* JobStateName(JobState state);

/// Knobs of the restart policy.
struct RestartOptions {
  /// Failure-class restarts (member loss, snapshot watchdog) allowed before
  /// the job turns FAILED, and the jittered backoff ladder between them.
  BackoffOptions backoff;
  /// RUNNING this long since the last restart launch resets the backoff
  /// ladder (flap damping: an isolated incident after a stable stretch
  /// starts from initial_backoff again).
  Nanos stability_period = 1 * kNanosPerSecond;
};

/// The member-loss half of §4.4: a job's restart state machine under a
/// retry budget, shared by cluster::JetCluster (one per job) and
/// procmode::ProcessCluster (its one job). The runtime feeds incidents in
/// and launches a restart when RestartDue(now); what a launch is stays the
/// runtime's business (a new attempt in-process, a re-fork in procmode).
///
/// No thread, lock or clock: every call takes `now`. One thread drives it;
/// state(), restarts() and budget_remaining() may be read from any thread.
class RestartPolicy {
 public:
  /// `stream_id` (the job id) decorrelates the jitter of jobs sharing a
  /// seed; `now` starts the first stability period.
  RestartPolicy(const RestartOptions& options, uint64_t stream_id, Nanos now);

  /// Exports `job.state`, `job.restarts`, `job.backoff_nanos` (the last
  /// scheduled delay) and `job.retry_budget_remaining` into `registry`.
  void BindMetrics(obs::MetricsRegistry* registry);

  JobState state() const { return state_.load(std::memory_order_acquire); }
  /// Restarts launched so far.
  int64_t restarts() const { return restarts_.load(std::memory_order_acquire); }
  /// Failure-class restarts still allowed before FAILED.
  int32_t budget_remaining() const {
    return budget_remaining_.load(std::memory_order_acquire);
  }

  /// A failure-class incident. Charges one restart and returns its backoff
  /// delay, or std::nullopt once the job is terminal (the budget ran out:
  /// state() is now FAILED, and the caller must fail the job). An incident
  /// arriving before the pending restart is launched folds into it free of
  /// charge and returns the time left: one root cause, one restart.
  std::optional<Nanos> OnFailure(Nanos now);

  /// Quorum lost: the job parks until the partition heals. Free.
  void OnSuspend();

  /// Schedules a restart due at once (quorum restored, member rejoined,
  /// scale-out). Free.
  void OnFreeRestart(Nanos now);

  /// The runtime launched the pending restart.
  void OnRestartLaunched(Nanos now);

  /// Terminal transitions.
  void OnCompleted();
  void OnFailed();

  /// When the pending restart is due (meaningful while RESTARTING).
  Nanos restart_due() const { return restart_due_; }

  /// True when a restart is pending and its backoff has elapsed.
  bool RestartDue(Nanos now) const {
    return state() == JobState::kRestarting && now >= restart_due_;
  }

 private:
  bool Terminal() const {
    return state() == JobState::kFailed || state() == JobState::kCompleted;
  }
  void SetState(JobState state);

  Nanos stability_period_;
  RetryBackoff backoff_;
  Nanos launched_at_;
  Nanos restart_due_ = 0;

  std::atomic<JobState> state_{JobState::kRunning};
  std::atomic<int64_t> restarts_{0};
  std::atomic<int32_t> budget_remaining_;

  obs::Gauge state_gauge_;
  obs::Counter restarts_counter_;
  obs::Gauge backoff_gauge_;
  obs::Gauge budget_gauge_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_RESTART_POLICY_H_
