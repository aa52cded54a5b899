#ifndef JETSIM_CLUSTER_JOB_SUPERVISOR_H_
#define JETSIM_CLUSTER_JOB_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "obs/metrics_registry.h"

namespace jet::cluster {

/// Lifecycle state of a supervised job (§4.4's autonomous recovery story):
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

/// Policy knobs of the self-healing control plane. Owned by ClusterConfig;
/// disabled by default so scripted (test-driven) recovery keeps working
/// unchanged.
struct SupervisorOptions {
  bool enabled = false;

  // -- failure detection (ClusterHealthMonitor thresholds) --
  Nanos heartbeat_interval = 15 * kNanosPerMilli;
  Nanos suspect_after = 45 * kNanosPerMilli;
  Nanos suspicion_timeout = 120 * kNanosPerMilli;

  // -- restart policy (the jet::RetryBackoff vocabulary, kept flat here
  //    for config ergonomics; see common/backoff.h) --
  /// Failure-class restarts (member death, snapshot watchdog) charged
  /// before the job turns terminally FAILED. Quorum suspensions, resumes
  /// and membership rejoins are free.
  int32_t retry_budget = 8;
  Nanos initial_backoff = 20 * kNanosPerMilli;
  double backoff_multiplier = 2.0;
  Nanos max_backoff = 2 * kNanosPerSecond;
  /// Seed of the per-job jitter stream (xored with the job id): spreads
  /// simultaneous restarts, deterministically per seed.
  uint64_t jitter_seed = 0x5E1F;
  /// Jitter added on top of the base backoff, as a fraction of it.
  double jitter_fraction = 0.25;
  /// RUNNING uninterrupted this long resets the backoff exponent (flap
  /// damping: an isolated incident after a stable stretch starts the
  /// backoff ladder from the bottom again).
  Nanos stability_period = 1 * kNanosPerSecond;

  /// The restart-policy fields above as a BackoffOptions.
  BackoffOptions RestartBackoff() const {
    BackoffOptions b;
    b.retry_budget = retry_budget;
    b.initial_backoff = initial_backoff;
    b.backoff_multiplier = backoff_multiplier;
    b.max_backoff = max_backoff;
    b.jitter_seed = jitter_seed;
    b.jitter_fraction = jitter_fraction;
    return b;
  }

  // -- snapshot watchdog --
  /// Default JobConfig::snapshot_ack_timeout applied to supervised jobs
  /// that did not set one.
  Nanos snapshot_ack_timeout = 250 * kNanosPerMilli;
};

/// Per-job restart policy and state machine of the self-healing control
/// plane. Pure bookkeeping: JetCluster's control thread is the only writer
/// (all methods below except the const accessors), while any thread may
/// read `state()` and the metric snapshots. The supervisor owns its own
/// registry so `job.state`, `job.restarts` and `job.backoff_nanos` survive
/// attempt churn (attempt registries die with their attempt).
class JobSupervisor {
 public:
  JobSupervisor(int64_t job_id, const SupervisorOptions& options);

  JobState state() const { return state_.load(std::memory_order_acquire); }

  /// Supervisor-initiated restarts launched so far.
  int64_t restarts() const { return restarts_.load(std::memory_order_acquire); }

  /// Failure-class restarts still allowed before terminal FAILED.
  int32_t budget_remaining() const {
    return budget_remaining_.load(std::memory_order_acquire);
  }

  // --- control-thread-only transitions ------------------------------------

  /// A failure-class incident (member down, snapshot watchdog timeout).
  /// Returns the backoff delay to wait before restarting, or std::nullopt
  /// when the retry budget is exhausted — the caller must fail the job.
  /// Incidents arriving while a restart is already pending coalesce into
  /// it (no extra charge, no rescheduling): that is what collapses a
  /// restart storm from one root cause into one restart.
  std::optional<Nanos> OnFailure(Nanos now);

  /// Quorum lost: the job parks until the partition heals. No charge.
  void OnSuspend();

  /// Schedules a free restart (quorum restored, member rejoined, scale-out
  /// under supervision). No charge, no backoff.
  void ScheduleFreeRestart(Nanos now);

  /// A new attempt was launched for this job.
  void OnRestartStarted(Nanos now);

  /// Terminal transitions.
  void OnFailed();
  void OnCompleted();

  /// True when a restart is pending and its backoff deadline has passed.
  bool RestartDue(Nanos now) const;

  std::vector<obs::MetricSnapshot> MetricSnapshots() const {
    return registry_.Snapshot();
  }

 private:
  void SetState(JobState state);

  SupervisorOptions options_;

  std::atomic<JobState> state_{JobState::kRunning};
  std::atomic<int64_t> restarts_{0};
  std::atomic<int32_t> budget_remaining_{0};

  // Control-thread-only bookkeeping.
  RetryBackoff backoff_;
  Nanos running_since_ = 0;
  Nanos restart_due_ = 0;
  bool restart_pending_ = false;

  obs::MetricsRegistry registry_;
  obs::Gauge state_gauge_;          // job.state (JobState numeric value)
  obs::Counter restarts_counter_;   // job.restarts
  obs::Gauge backoff_gauge_;        // job.backoff_nanos (last delay)
  obs::Gauge budget_gauge_;         // job.retry_budget_remaining
};

}  // namespace jet::cluster

#endif  // JETSIM_CLUSTER_JOB_SUPERVISOR_H_
