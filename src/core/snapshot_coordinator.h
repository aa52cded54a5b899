#ifndef JETSIM_CORE_SNAPSHOT_COORDINATOR_H_
#define JETSIM_CORE_SNAPSHOT_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/execution_plan.h"
#include "imdg/snapshot_store.h"
#include "obs/metrics_registry.h"

namespace jet::core {

/// The epoch policy of the §4.4 snapshot protocol, shared by core::Job,
/// cluster::ClusterJob and procmode::ProcessCluster. Epoch N begins
/// `interval` after the previous epoch ended (or the attempt started) and
/// never while another is in flight; the watchdog gives up on it
/// `ack_timeout` after it began (0 = never); commit publishes it in the
/// store, a failed commit aborts it, abort drops its store state. The
/// runtime injects barriers and decides when every participant persisted.
///
/// No thread, lock or clock: every call takes `now`. One thread drives it
/// at a time; the counters may be read from any thread.
class SnapshotCoordinator {
 public:
  SnapshotCoordinator(imdg::SnapshotStore* store, imdg::JobId job, Nanos interval,
                      Nanos ack_timeout)
      : store_(store), job_(job), interval_(interval), ack_timeout_(ack_timeout) {}

  /// Exports the counters into `registry`: gauges `job.snapshots_taken`
  /// and `job.last_committed_snapshot`, and `snapshot.aborted` counting
  /// this binding's aborts. Replaces any earlier binding.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Forgets any in-flight epoch (the runtime sweeps the store), numbers
  /// the next epochs from `first_id` and starts the interval clock.
  void StartAttempt(int64_t first_id, Nanos now);

  /// Begins the next epoch if none is in flight and `interval` elapsed;
  /// returns its id, or 0.
  int64_t MaybeBegin(Nanos now);
  /// When MaybeBegin next begins an epoch (while none is in flight).
  Nanos next_begin() const { return last_end_ + interval_; }
  /// True once the in-flight epoch is `ack_timeout` old.
  bool Overdue(Nanos now) const {
    return in_flight_ != 0 && ack_timeout_ > 0 && now - began_ >= ack_timeout_;
  }
  /// Commits the in-flight epoch; on a store error aborts it and returns
  /// the error.
  Status Commit(Nanos now);
  /// Aborts the in-flight epoch, if any.
  void Abort(Nanos now);

  int64_t in_flight() const { return in_flight_; }  // 0 = none
  int64_t next_id() const { return next_id_; }
  int64_t last_committed() const { return last_committed_.load(std::memory_order_acquire); }
  int64_t taken() const { return taken_.load(std::memory_order_acquire); }
  int64_t aborted() const { return aborted_.load(std::memory_order_acquire); }

 private:
  imdg::SnapshotStore* store_;
  imdg::JobId job_;
  Nanos interval_;
  Nanos ack_timeout_;
  int64_t next_id_ = 1;
  int64_t in_flight_ = 0;
  Nanos began_ = 0;
  Nanos last_end_ = 0;
  std::atomic<int64_t> last_committed_{0};
  std::atomic<int64_t> taken_{0};
  std::atomic<int64_t> aborted_{0};
  obs::Gauge taken_gauge_;
  obs::Gauge committed_gauge_;
  obs::Counter aborted_counter_;
};

/// Snapshot writer persisting every state entry of `job` into `store`.
SnapshotWriterFn StoreSnapshotWriter(imdg::SnapshotStore* store, imdg::JobId job);

/// The commit gate: the snapshot-participating tasklets of the plans
/// added, exchange tasklets included. Per-tasklet completed ids, not a
/// shared ack counter, so a straggler of an aborted epoch never counts
/// toward the next.
class SnapshotParticipants {
 public:
  void Add(const ExecutionPlan& plan);
  bool AllCompleted(int64_t id) const;
  const std::vector<const ProcessorTasklet*>& tasklets() const { return tasklets_; }

 private:
  std::vector<const ProcessorTasklet*> tasklets_;
};

/// What one StepSnapshot did.
struct SnapshotStep {
  /// When the next step is due: the next epoch's start while idle, the
  /// next completion poll (100 µs on) while an epoch is in flight.
  Nanos next_due = 0;
  /// The watchdog aborted the in-flight epoch in this step.
  bool watchdog_aborted = false;
};

/// One step of the in-process snapshot loop (core::Job, cluster::ClusterJob)
/// at `now`: commits the in-flight epoch once every participant completed
/// it, aborts it once it is overdue (the watchdog: a participant is stuck
/// or dead), or begins the next epoch when it is due; each outcome is
/// published in `control`. No thread, lock or clock of its own: the
/// caller's control loop calls it again at `next_due`, and never once the
/// attempt is stopped, so an epoch still in flight then stays uncommitted.
SnapshotStep StepSnapshot(SnapshotCoordinator* coordinator, SnapshotControl* control,
                          const SnapshotParticipants& participants, Nanos now);

/// Routes restored state entries of vertex V to the plan instance with
/// global index `key_hash % total_parallelism(V)`; entries owned by other
/// members' instances are dropped. Apply() hands every instance its
/// entries (possibly none), so each runs its processor's restore step.
class RestoreRouter {
 public:
  explicit RestoreRouter(const ExecutionPlan& plan)
      : infos_(plan.tasklet_infos()), entries_(infos_.size()) {}
  void Route(VertexId vertex, StateEntry entry);
  void Apply();

 private:
  const std::vector<TaskletInfo>& infos_;
  std::vector<std::vector<StateEntry>> entries_;
};

/// Loads committed snapshot `snapshot_id` of `job` from `store` into the
/// plan (see RestoreRouter), before execution starts. Multi-node
/// executions call this once per node's plan.
Status LoadSnapshotIntoPlan(ExecutionPlan* plan, imdg::SnapshotStore* store,
                            imdg::JobId job, int64_t snapshot_id);

}  // namespace jet::core

#endif  // JETSIM_CORE_SNAPSHOT_COORDINATOR_H_
