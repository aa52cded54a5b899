#include "core/job.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace jet::core {

Result<std::unique_ptr<MemberExecution>> MemberExecution::Create(
    const MemberParams& params) {
  auto member = std::unique_ptr<MemberExecution>(new MemberExecution());
  member->registry_ = std::make_unique<obs::MetricsRegistry>(params.tags);
  member->profiler_ =
      std::make_unique<obs::EventLoopProfiler>(member->registry_.get(), params.clock);
  auto plan = ExecutionPlan::Build(params, member->registry_.get());
  if (!plan.ok()) return plan.status();
  member->plan_ = std::move(plan.value());
  ExecutionService::Options service_options;
  service_options.rebalance_interval = params.config.rebalance_interval;
  member->service_ = std::make_unique<ExecutionService>(
      params.threads, member->profiler_.get(), service_options);
  if (params.metrics_grid != nullptr) {
    // The collector completes once the member's real tasklets have, so it
    // never keeps the service alive on its own.
    obs::MetricsCollectorTasklet::Options opts;
    opts.key = "job-" + std::to_string(params.tags.job) + "/member-" +
               std::to_string(params.tags.member);
    opts.publish_interval = params.metrics_publish_interval;
    const ExecutionPlan* raw = member->plan_.get();
    member->collector_ = std::make_unique<obs::MetricsCollectorTasklet>(
        member->registry_.get(), params.metrics_grid, params.clock, std::move(opts),
        [raw]() {
          for (const auto& t : raw->tasklets()) {
            if (!t->IsDone()) return false;
          }
          return true;
        });
  }
  return member;
}

std::vector<Tasklet*> MemberExecution::Tasklets() const {
  std::vector<Tasklet*> out;
  out.reserve(plan_->tasklets().size() + 1);
  for (const auto& t : plan_->tasklets()) out.push_back(t.get());
  if (collector_ != nullptr) out.push_back(collector_.get());
  return out;
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

  MemberParams member;
  member.dag = params.dag;
  member.config = params.config;
  member.threads = threads;
  member.clock = job->params_.clock;
  member.cancelled = &job->cancelled_;
  if (params.config.guarantee != ProcessingGuarantee::kNone) {
    member.snapshot_control = &job->snapshot_control_;
  }
  member.tags.job = static_cast<int64_t>(params.job_id);
  member.tags.member = 0;
  member.metrics_grid = params.metrics_grid;
  member.metrics_publish_interval = params.metrics_publish_interval;
  auto created = MemberExecution::Create(member);
  if (!created.ok()) return created.status();
  job->member_ = std::move(created.value());

  job->snapshots_ = std::make_unique<SnapshotCoordinator>(
      params.snapshot_store, params.job_id, params.config.snapshot_interval,
      params.config.snapshot_ack_timeout);
  job->snapshots_->BindMetrics(job->member_->registry());

  if (params.restore_snapshot_id.has_value()) {
    if (params.snapshot_store == nullptr) {
      return InvalidArgumentError("restore requires a snapshot store");
    }
    JET_RETURN_IF_ERROR(LoadSnapshotIntoPlan(job->member_->plan(), params.snapshot_store,
                                             params.job_id, *params.restore_snapshot_id));
    params.snapshot_store->ClearInFlight(params.job_id);
  }
  return job;
}

Status Job::Start() {
  JET_RETURN_IF_ERROR(member_->Start());
  if (params_.config.guarantee != ProcessingGuarantee::kNone) {
    coordinator_ = std::thread([this]() {
      using std::chrono::nanoseconds;
      const Clock& clock = WallClock::Global();
      SnapshotParticipants participants;
      participants.Add(*member_->plan());
      snapshots_->StartAttempt(params_.restore_snapshot_id.value_or(0) + 1, clock.Now());
      while (!coordinator_stop_.load(std::memory_order_acquire) &&
             !member_->service()->IsComplete()) {
        const Nanos now = clock.Now();
        const SnapshotStep step =
            StepSnapshot(snapshots_.get(), &snapshot_control_, participants, now);
        // Sleep toward the next step in small steps so a stop is prompt.
        std::this_thread::sleep_for(
            nanoseconds(std::clamp<Nanos>(step.next_due - now, 0, kNanosPerMilli)));
      }
    });
  }
  return Status::OK();
}

JobMetrics Job::Metrics() const {
  JobMetrics m = JobMetricsFromSnapshot(member_->registry()->Snapshot());
  m.job_id = params_.job_id;
  m.snapshots_taken = snapshots_->taken();
  m.last_committed_snapshot = snapshots_->last_committed();
  return m;
}

void Job::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  coordinator_stop_.store(true, std::memory_order_release);
  member_->service()->Cancel();
}

Status Job::Join() {
  Status s = member_->service()->AwaitCompletion();
  coordinator_stop_.store(true, std::memory_order_release);
  if (coordinator_.joinable()) coordinator_.join();
  return s;
}

Job::~Job() {
  if (member_ == nullptr) return;  // Create failed before building the member
  Cancel();
  Join();
}

}  // namespace jet::core
