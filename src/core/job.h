#ifndef JETSIM_CORE_JOB_H_
#define JETSIM_CORE_JOB_H_

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "common/status.h"
#include "core/dag.h"
#include "core/execution_plan.h"
#include "core/execution_service.h"
#include "core/metrics.h"
#include "core/snapshot_coordinator.h"
#include "imdg/snapshot_store.h"
#include "obs/collector_tasklet.h"
#include "obs/event_loop_profiler.h"
#include "obs/metrics_registry.h"

namespace jet::core {

/// One member's execution of a job (§3.1): the whole DAG instantiated as
/// one plan — processor tasklets plus the exchange tasklets of distributed
/// edges — on one cooperative execution service, observed through the
/// member's own metrics registry and event-loop profiler. core::Job runs
/// one, cluster::ClusterJob one per node of an attempt and
/// procmode::ProcessMember one per attempt.
class MemberExecution {
 public:
  /// Builds the plan and the (not yet started) service.
  static Result<std::unique_ptr<MemberExecution>> Create(const MemberParams& params);

  MemberExecution(const MemberExecution&) = delete;
  MemberExecution& operator=(const MemberExecution&) = delete;

  /// Every tasklet in the order Start() hands them to the service (which
  /// places them on workers round-robin in that order): the plan's
  /// processor tasklets, its exchange tasklets, then the collector.
  std::vector<Tasklet*> Tasklets() const;

  /// Starts the worker threads. May be called once.
  Status Start() { return service_->Start(Tasklets()); }

  ExecutionPlan* plan() const { return plan_.get(); }
  ExecutionService* service() const { return service_.get(); }
  obs::MetricsRegistry* registry() const { return registry_.get(); }

 private:
  MemberExecution() = default;

  // Declared so the service (and its workers) go first, then the tasklets,
  // and the observability they hold handles and profiler slots into last.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::EventLoopProfiler> profiler_;
  std::unique_ptr<obs::MetricsCollectorTasklet> collector_;
  std::unique_ptr<ExecutionPlan> plan_;
  std::unique_ptr<ExecutionService> service_;
};

/// Parameters for a single-node job execution.
struct JobParams {
  /// The dataflow to execute; must outlive the job.
  const Dag* dag = nullptr;
  JobConfig config;
  /// Cooperative worker threads; -1 = hardware concurrency.
  int32_t cooperative_threads = -1;
  /// Snapshot storage; required when config.guarantee != kNone.
  imdg::SnapshotStore* snapshot_store = nullptr;
  imdg::JobId job_id = 1;
  /// When set, processor state is restored from this committed snapshot
  /// before any input is processed.
  std::optional<int64_t> restore_snapshot_id;
  /// Time source; nullptr = global wall clock.
  const Clock* clock = nullptr;
  /// When set, a MetricsCollectorTasklet publishes periodic JSON snapshots
  /// of the job's metrics into this grid (map "__jet.metrics", key
  /// "job-<id>/member-0") — the Management-Center persistence path.
  imdg::DataGrid* metrics_grid = nullptr;
  Nanos metrics_publish_interval = 500 * kNanosPerMilli;
};

/// A running (single-node) job: the execution plan, its worker threads and
/// — when a processing guarantee is configured — a snapshot coordinator
/// that periodically triggers distributed snapshots (§4.4) and commits them
/// to the snapshot store once every tasklet has acknowledged its barrier.
class Job {
 public:
  /// Builds the physical plan. Call Start() to begin execution.
  static Result<std::unique_ptr<Job>> Create(JobParams params);

  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Starts the worker threads (and the snapshot coordinator, if any).
  Status Start();

  /// Requests cancellation; Join() afterwards to wait for the teardown.
  void Cancel();

  /// Waits for the job to finish (all tasklets done, or cancelled) and
  /// returns the first execution error.
  Status Join();

  /// True once all tasklets completed.
  bool IsComplete() const { return member_->service()->IsComplete(); }

  /// Id of the last snapshot committed by the coordinator (0 = none).
  int64_t last_committed_snapshot() const { return snapshots_->last_committed(); }

  /// Number of snapshots committed during this execution.
  int64_t snapshots_taken() const { return snapshots_->taken(); }

  /// Number of in-flight snapshots aborted: abandoned by the watchdog (see
  /// JobConfig::snapshot_ack_timeout) or failed to commit.
  int64_t snapshots_aborted() const { return snapshots_->aborted(); }

  /// Point-in-time metrics of the running job (the Management Center view,
  /// §2), materialized from a race-free registry snapshot. Safe to call
  /// from any thread; values are monotonic across consecutive calls.
  JobMetrics Metrics() const;

  /// Raw registry snapshot — every instrument of this job's member,
  /// including exchange and profiler metrics the JobMetrics view folds
  /// away. Feed to obs::RenderJson / obs::RenderPrometheusText.
  std::vector<obs::MetricSnapshot> MetricSnapshots() const {
    return member_->registry()->Snapshot();
  }

  /// JSON diagnostics dump of all instruments (single-node counterpart of
  /// JetCluster::DiagnosticsDump).
  std::string DiagnosticsJson() const { return obs::RenderJson(MetricSnapshots()); }

 private:
  Job() = default;

  JobParams params_;
  SnapshotControl snapshot_control_;
  std::atomic<bool> cancelled_{false};
  std::unique_ptr<MemberExecution> member_;
  std::thread coordinator_;
  std::atomic<bool> coordinator_stop_{false};
  // Driven by the coordinator thread; its gauges live in member_'s registry.
  std::unique_ptr<SnapshotCoordinator> snapshots_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_JOB_H_
