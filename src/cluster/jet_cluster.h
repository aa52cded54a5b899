#ifndef JETSIM_CLUSTER_JET_CLUSTER_H_
#define JETSIM_CLUSTER_JET_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cluster/health_monitor.h"
#include "common/thread_annotations.h"
#include "core/dag.h"
#include "core/execution_service.h"
#include "core/job.h"
#include "core/metrics.h"
#include "core/restart_policy.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "net/exchange.h"
#include "net/network.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"

namespace jet::cluster {

/// Knobs of the self-healing control plane, which every cluster runs.
struct SupervisorOptions {
  /// ClusterHealthMonitor thresholds.
  core::LivenessOptions liveness;
  /// Per-job restart policy.
  core::RestartOptions restart;
  /// Default JobConfig::snapshot_ack_timeout applied to jobs that did not
  /// set one.
  Nanos snapshot_ack_timeout = 250 * kNanosPerMilli;
};

/// Configuration of an in-process Jet cluster.
struct ClusterConfig {
  int32_t initial_nodes = 3;
  /// Cooperative worker threads per node (the paper uses 12 of 16 vCPUs;
  /// in-process clusters keep this small).
  int32_t threads_per_node = 2;
  /// IMDG backup replicas per partition.
  int32_t backup_count = 1;
  /// Time between a member's death and the cluster acting on it (the
  /// heartbeat failure-detector timeout; Hazelcast's default is several
  /// seconds). Applied inside KillNode before backup promotion.
  Nanos failure_detection_delay = 0;
  /// Self-healing control plane (§4.4's autonomous recovery): a mesh
  /// heartbeat monitor detects member death and link partitions, and
  /// per-job restart policies restart jobs from the last committed
  /// snapshot with backoff and a retry budget. See CrashNode.
  SupervisorOptions supervisor;
};

class ClusterJob;

/// An in-process Jet cluster: N member nodes sharing a data grid (state
/// backend, §2.4), connected by a simulated network, each running its own
/// cooperative execution service. This is the substitution for the paper's
/// multi-VM deployments — all inter-node data still flows through the
/// flow-controlled network channels and all state through the replicated
/// grid, so the distributed protocols (§3.3, §4) execute for real.
///
/// Besides the members' workers and the network's delivery thread, the
/// cluster runs one control loop, started by the constructor. Each tick it
/// sends the due heartbeats and folds the health report, steps every job's
/// current attempt through one snapshot step, acts on a changed report,
/// charges a failure to each job whose attempt lost a frame or had an
/// epoch aborted by the watchdog, and reconciles the jobs' restart
/// policies: every restart is launched there, once the membership is
/// healthy. It never waits on the membership lock a user call holds
/// (KillNode holds it across `failure_detection_delay`): it skips that
/// part of the tick and comes back to it.
class JetCluster {
 public:
  explicit JetCluster(ClusterConfig config);
  ~JetCluster();

  JetCluster(const JetCluster&) = delete;
  JetCluster& operator=(const JetCluster&) = delete;

  /// Submits a job spanning all alive nodes. The returned pointer is owned
  /// by the cluster and valid until the cluster is destroyed.
  Result<ClusterJob*> SubmitJob(const core::Dag* dag, core::JobConfig config,
                                imdg::JobId job_id);

  /// Fail-stops a member and evicts it at once: its worker threads halt,
  /// the grid promotes the backups of its partitions (§4.2, Fig. 6), and
  /// every running job is stopped and charged one failure; the control
  /// loop restarts it from its last committed snapshot on the surviving
  /// members (§4.4).
  Status KillNode(int32_t node_id);

  /// Fail-stops a member *without* telling the cluster: its worker threads
  /// halt and its heartbeats cease, but no membership change happens here
  /// — the health monitor must detect the death and the control plane must
  /// evict and recover on its own.
  Status CrashNode(int32_t node_id);

  /// Adds a member: the grid rebalances partitions onto it (§4.3) and
  /// running jobs restart, free of charge, rescaled to include it.
  Result<int32_t> AddNode();

  /// Freezes the worker threads of `node_id` across all running jobs for
  /// `duration` (GC-pause injection; see ExecutionService::InjectStall).
  Status StallNode(int32_t node_id, Nanos duration);

  /// Physical ids of alive members.
  std::vector<int32_t> AliveNodes() const;

  /// A Management-Center-style dump of every metric in the cluster, in
  /// both exposition formats.
  struct Diagnostics {
    std::string prometheus;  ///< Prometheus text exposition format
    std::string json;        ///< JSON diagnostics document
  };

  /// Snapshots every running (or last-completed) job's registries plus
  /// cluster-level IMDG and network counters and renders them. Safe to
  /// call from any thread at any time.
  Diagnostics DiagnosticsDump() const;

  imdg::DataGrid& grid() { return grid_; }
  imdg::SnapshotStore& snapshot_store() { return store_; }
  net::Network& network() { return network_; }
  const ClusterConfig& config() const { return config_; }
  /// The heartbeat mesh the control loop ticks.
  ClusterHealthMonitor* health_monitor() { return &monitor_; }

 private:
  friend class ClusterJob;

  // Applies `fn` to `node_id`'s execution service in every job's current
  // attempt.
  void ForEachService(int32_t node_id,
                      const std::function<void(core::ExecutionService*)>& fn)
      JET_REQUIRES(mutex_);

  // The control loop's thread: ticks whenever a tick is due or Wake() was
  // called, until the destructor stops it.
  void ControlLoop() JET_EXCLUDES(mutex_, loop_mutex_);
  // One tick at `now`; returns when the next is due. The part under mutex_
  // runs only if mutex_ is free (TickLocked); heartbeats go out regardless.
  Nanos Tick(Nanos now) JET_EXCLUDES(mutex_);
  Nanos TickLocked(Nanos now) JET_REQUIRES(mutex_);
  // Makes the loop tick at once (an attempt started and its snapshot
  // schedule is new).
  void Wake() JET_EXCLUDES(loop_mutex_);
  void HandleHealthReport(const HealthReport& report) JET_REQUIRES(mutex_);
  // Launches the restarts that are due; returns when the next one is.
  Nanos ReconcileJobs(Nanos now) JET_REQUIRES(mutex_);
  // Feeds a failure-class incident to the job's policy; fails the job when
  // the retry budget is exhausted.
  void ChargeFailure(ClusterJob* job, Nanos now, const char* what)
      JET_REQUIRES(mutex_);

  ClusterConfig config_;
  imdg::DataGrid grid_;
  imdg::SnapshotStore store_;
  net::Network network_;
  WallClock clock_;

  // Cluster membership/job lock. Lock order: mutex_ → ClusterJob::job_mutex_
  // (KillNode, ReconcileJobs, the snapshot steps); never the reverse. The
  // control loop only ever try-locks it.
  mutable jet::Mutex mutex_;
  std::vector<int32_t> alive_nodes_ JET_GUARDED_BY(mutex_);
  // evicted by the control plane, may rejoin
  std::set<int32_t> evicted_ JET_GUARDED_BY(mutex_);
  // latest report acted on by the control loop
  HealthReport last_report_ JET_GUARDED_BY(mutex_);
  // A changed report not acted on yet (control thread only).
  std::optional<HealthReport> pending_report_;
  int32_t next_node_id_ JET_GUARDED_BY(mutex_) = 0;
  std::vector<std::unique_ptr<ClusterJob>> jobs_ JET_GUARDED_BY(mutex_);

  // Heartbeat mesh, ticked by the control loop.
  ClusterHealthMonitor monitor_;
  // The control loop waits on loop_cv_ until its next tick is due, a
  // Wake() or the stop.
  std::thread control_;
  jet::Mutex loop_mutex_;
  jet::CondVar loop_cv_;
  bool loop_wake_ JET_GUARDED_BY(loop_mutex_) = false;
  bool loop_stop_ JET_GUARDED_BY(loop_mutex_) = false;
};

/// A job running on a JetCluster. A job execution is a sequence of
/// *attempts*; node failure, a lost frame or scale-out cancels the current
/// attempt, and the control loop starts a new one restored from the last
/// committed snapshot, exactly the §4.4 recovery protocol.
class ClusterJob {
 public:
  ~ClusterJob();

  ClusterJob(const ClusterJob&) = delete;
  ClusterJob& operator=(const ClusterJob&) = delete;

  /// Blocks until an attempt runs to natural completion (all sources
  /// exhausted). Returns the first execution error.
  Status Join();

  /// Cancels the job.
  void Cancel();

  /// Id of the last committed snapshot (0 = none).
  int64_t last_committed_snapshot() const { return snapshots_.last_committed(); }

  /// Number of attempts started (1 = no recoveries).
  int32_t attempts_started() const { return attempt_count_.load(std::memory_order_acquire); }

  /// Point-in-time metrics across all nodes of the current attempt (the
  /// Management Center view, §2), materialized from the members' registry
  /// snapshots.
  core::JobMetrics Metrics() const;

  /// Concatenated registry snapshots of every member of the current (or
  /// last completed) attempt, plus the restart policy's job-lifecycle
  /// metrics. Safe from any thread.
  std::vector<obs::MetricSnapshot> MetricSnapshots() const;

  /// Restart policy, driven by the cluster's control loop.
  core::RestartPolicy* supervisor() { return &supervisor_; }

  /// Snapshots aborted (watchdog or failed commit), across attempts.
  int64_t snapshots_aborted() const { return snapshots_.aborted(); }

  /// Partitions currently claimed by this job's processors (current
  /// attempt; 0 between attempts). Safe from any thread.
  int64_t owned_partitions() const;

  /// Cumulative ownership transfers across all attempts (claims that
  /// migrated with their tasklet). Safe from any thread.
  int64_t ownership_transfers() const;

 private:
  friend class JetCluster;

  // One execution attempt across a fixed set of nodes.
  struct Attempt {
    std::vector<int32_t> nodes;  // physical ids; index in vector = plan node id
    std::atomic<bool> cancelled{false};
    core::SnapshotControl snapshot_control;
    // Single-writer state-ownership registry of this attempt. Per-attempt
    // (not per-cluster): a restarted attempt's processors re-claim the
    // same {vertex, partition} slots, which must not collide with the
    // stopped attempt's claims (released only when its processors die).
    // It and the exchange registry are declared before the members so
    // they outlive the claim releases running in the processors'
    // destructors.
    std::unique_ptr<imdg::OwnershipRegistry> ownership;
    std::unique_ptr<net::ExchangeRegistry> exchange;
    std::vector<std::unique_ptr<core::MemberExecution>> members;  // index = plan node id
    // The commit gate of the attempt's epochs (empty without a guarantee).
    core::SnapshotParticipants participants;

    bool AllComplete() const;
    // Cancels every member's service; StopAll also waits for them.
    void Cancel();
    void StopAll();
  };

  ClusterJob(JetCluster* cluster, const core::Dag* dag, core::JobConfig config,
             imdg::JobId job_id);

  // Builds and starts an attempt on `nodes`; restores from
  // `restore_snapshot` if >= 0. Caller holds cluster mutex. (The
  // cluster-mutex contracts on this and the methods below cannot be
  // JET_REQUIRES(cluster_->mutex_): clang's analysis does not alias
  // `job->cluster_->mutex_` at the call sites with the `mutex_` the
  // caller holds, so the annotation would be a guaranteed false positive.
  // The serialization is enforced by JetCluster, whose own handlers ARE
  // annotated.)
  Status StartAttempt(std::vector<int32_t> nodes, int64_t restore_snapshot)
     ;

  // One snapshot step of the current attempt at `now` (see
  // core::StepSnapshot); next_due is kNeverDue when there is nothing to
  // step. Runs under job_mutex_, so no step reaches an attempt once
  // StopCurrentAttempt took it: a restart that reads the last committed
  // epoch never races a late commit.
  core::SnapshotStep StepSnapshot(Nanos now) JET_EXCLUDES(job_mutex_);

  // Stops the current attempt (cancel + join threads). Touches only
  // job_mutex_-guarded state; also reachable from Join(), which does not
  // hold the cluster mutex.
  void StopCurrentAttempt();

  // Stops the current attempt unless the job already finished naturally or
  // was cancelled. Returns true if an attempt was stopped (and therefore
  // needs a restart). Caller holds cluster mutex.
  bool StopForRecovery();

  // True when the current attempt's exchange dropped a frame (see
  // net::ExchangeRegistry::broken).
  bool AttemptBroken() const JET_EXCLUDES(job_mutex_);

  // Starts a fresh attempt on the cluster's alive nodes, restored from the
  // last committed snapshot (if any). Caller holds cluster mutex.
  Status RestartFromLastSnapshot();

  // Terminal failure: stops the attempt, records the error, releases
  // Join(). Caller holds cluster mutex.
  void FailTerminally(Status error);

  JetCluster* cluster_;
  const core::Dag* dag_;
  core::JobConfig config_;
  imdg::JobId job_id_;
  // Epoch policy across attempts: reset by StartAttempt and stepped by the
  // cluster's control loop, both under the cluster mutex.
  core::SnapshotCoordinator snapshots_;

  // mutable: MetricSnapshots() is logically const but must lock to read
  // attempt_ (previously expressed with a const_cast).
  mutable jet::Mutex job_mutex_;
  std::shared_ptr<Attempt> attempt_ JET_GUARDED_BY(job_mutex_);
  // Last stopped attempt, kept for post-run Metrics().
  std::shared_ptr<Attempt> completed_attempt_ JET_GUARDED_BY(job_mutex_);
  std::atomic<int32_t> attempt_count_{0};
  std::atomic<bool> job_cancelled_{false};
  std::atomic<bool> failed_{false};
  // Latched by Join() when the attempt finishes naturally, because Join
  // tears the attempt down right after — the control loop would otherwise
  // race a ~1ms window to observe AllComplete on the live attempt.
  std::atomic<bool> completed_naturally_{false};
  // Ownership transfers folded in from stopped attempts (the live
  // attempt's registry is added on read).
  std::atomic<int64_t> ownership_transfers_base_{0};
  // Driven by the control loop; its metrics live in their own registry so
  // they survive attempt churn.
  obs::MetricsRegistry supervisor_metrics_;
  core::RestartPolicy supervisor_;
  // After a lost frame, the restart launches no sooner than this (see
  // JetCluster::TickLocked). Control loop only, under the cluster mutex.
  Nanos relaunch_not_before_ = 0;
  Status first_error_;
};

}  // namespace jet::cluster

#endif  // JETSIM_CLUSTER_JET_CLUSTER_H_
