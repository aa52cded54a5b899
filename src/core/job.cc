#include "core/job.h"

#include <chrono>

#include "common/logging.h"

namespace jet::core {

void RunSnapshotLoop(SnapshotCoordinator* coordinator, int64_t first_id,
                     SnapshotControl* control, const SnapshotParticipants& participants,
                     const std::function<bool()>& stop,
                     const std::function<void()>& on_watchdog_abort) {
  using std::chrono::nanoseconds;
  const Clock& clock = WallClock::Global();
  coordinator->StartAttempt(first_id, clock.Now());
  while (!stop()) {
    const Nanos now = clock.Now();
    const int64_t id = coordinator->in_flight();
    if (id == 0) {
      const int64_t begun = coordinator->MaybeBegin(now);
      if (begun != 0) {
        control->requested.store(begun, std::memory_order_release);
      } else {
        // Sleep toward the next epoch in small steps so a stop is prompt.
        std::this_thread::sleep_for(
            nanoseconds(std::min<Nanos>(coordinator->next_begin() - now, kNanosPerMilli)));
      }
      continue;
    }
    if (participants.AllCompleted(id)) {
      Status s = coordinator->Commit(now);
      if (s.ok()) {
        control->committed.store(id, std::memory_order_release);
      } else {
        JET_LOG(kError) << "snapshot commit failed: " << s.ToString();
        control->aborted.store(id, std::memory_order_release);
      }
      continue;
    }
    if (coordinator->Overdue(now)) {
      // Watchdog: a participant is stuck (or dead); drop the epoch and
      // re-arm the next one instead of stalling this thread forever.
      coordinator->Abort(now);
      control->aborted.store(id, std::memory_order_release);
      if (on_watchdog_abort) on_watchdog_abort();
      continue;
    }
    std::this_thread::sleep_for(nanoseconds(100 * kNanosPerMicro));
  }
}

Result<std::unique_ptr<Job>> Job::Create(JobParams params) {
  if (params.dag == nullptr) return InvalidArgumentError("job has no DAG");
  if (params.config.guarantee != ProcessingGuarantee::kNone &&
      params.snapshot_store == nullptr) {
    return InvalidArgumentError("processing guarantee requires a snapshot store");
  }
  auto job = std::unique_ptr<Job>(new Job());
  job->params_ = params;
  if (job->params_.clock == nullptr) job->params_.clock = &WallClock::Global();

  int32_t threads = params.cooperative_threads;
  if (threads <= 0) {
    threads = static_cast<int32_t>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  if (params.snapshot_store != nullptr) {
    job->snapshot_control_.write_entry =
        StoreSnapshotWriter(params.snapshot_store, params.job_id);
  }
  job->snapshots_ = std::make_unique<SnapshotCoordinator>(
      params.snapshot_store, params.job_id, params.config.snapshot_interval,
      params.config.snapshot_ack_timeout);

  // Member-wide observability: one registry per (job, member), profiled
  // execution service, instruments tagged {job, member} by default.
  obs::MetricTags member_tags;
  member_tags.job = static_cast<int64_t>(params.job_id);
  member_tags.member = 0;
  job->registry_ = std::make_unique<obs::MetricsRegistry>(member_tags);
  job->profiler_ =
      std::make_unique<obs::EventLoopProfiler>(job->registry_.get(), job->params_.clock);
  job->snapshots_->BindMetrics(job->registry_.get());

  NodeInfo node;  // single-node
  auto plan = ExecutionPlan::Build(
      *params.dag, node, params.config, threads, job->params_.clock, &job->cancelled_,
      /*remote_edges=*/nullptr,
      params.config.guarantee != ProcessingGuarantee::kNone ? &job->snapshot_control_
                                                            : nullptr,
      job->registry_.get());
  if (!plan.ok()) return plan.status();
  job->plan_ = std::move(plan.value());
  ExecutionService::Options service_options;
  service_options.rebalance_interval = params.config.rebalance_interval;
  job->service_ =
      std::make_unique<ExecutionService>(threads, job->profiler_.get(), service_options);

  if (params.restore_snapshot_id.has_value()) {
    if (params.snapshot_store == nullptr) {
      return InvalidArgumentError("restore requires a snapshot store");
    }
    JET_RETURN_IF_ERROR(LoadSnapshotIntoPlan(job->plan_.get(), params.snapshot_store,
                                             params.job_id, *params.restore_snapshot_id));
    params.snapshot_store->ClearInFlight(params.job_id);
  }
  return job;
}

Status Job::Start() {
  std::vector<Tasklet*> tasklets = plan_->Tasklets();
  if (params_.metrics_grid != nullptr) {
    obs::MetricsCollectorTasklet::Options opts;
    opts.key = "job-" + std::to_string(params_.job_id) + "/member-0";
    opts.publish_interval = params_.metrics_publish_interval;
    ExecutionPlan* plan = plan_.get();
    collector_ = std::make_unique<obs::MetricsCollectorTasklet>(
        registry_.get(), params_.metrics_grid, params_.clock, std::move(opts),
        [plan]() {
          for (const TaskletInfo& info : plan->tasklet_infos()) {
            if (!info.tasklet->IsDone()) return false;
          }
          return true;
        });
    tasklets.push_back(collector_.get());
  }
  JET_RETURN_IF_ERROR(service_->Start(std::move(tasklets)));
  if (params_.config.guarantee != ProcessingGuarantee::kNone) {
    coordinator_ = std::thread([this]() {
      SnapshotParticipants participants;
      participants.Add(*plan_);
      RunSnapshotLoop(
          snapshots_.get(), params_.restore_snapshot_id.value_or(0) + 1,
          &snapshot_control_, participants,
          [this]() {
            return coordinator_stop_.load(std::memory_order_acquire) ||
                   service_->IsComplete();
          },
          nullptr);
    });
  }
  return Status::OK();
}

JobMetrics Job::Metrics() const {
  JobMetrics m = JobMetricsFromSnapshot(registry_->Snapshot());
  m.job_id = params_.job_id;
  m.snapshots_taken = snapshots_->taken();
  m.last_committed_snapshot = snapshots_->last_committed();
  return m;
}

void Job::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  coordinator_stop_.store(true, std::memory_order_release);
  service_->Cancel();
}

Status Job::Join() {
  Status s = service_->AwaitCompletion();
  coordinator_stop_.store(true, std::memory_order_release);
  if (coordinator_.joinable()) coordinator_.join();
  return s;
}

Job::~Job() {
  Cancel();
  Join();
}

}  // namespace jet::core
