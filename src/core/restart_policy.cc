#include "core/restart_policy.h"

#include <algorithm>

namespace jet::core {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kSuspended:
      return "SUSPENDED";
    case JobState::kRestarting:
      return "RESTARTING";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCompleted:
      return "COMPLETED";
  }
  return "?";
}

RestartPolicy::RestartPolicy(const RestartOptions& options, uint64_t stream_id, Nanos now)
    : stability_period_(options.stability_period),
      backoff_(options.backoff, stream_id),
      launched_at_(now),
      budget_remaining_(options.backoff.retry_budget) {}

void RestartPolicy::BindMetrics(obs::MetricsRegistry* registry) {
  state_gauge_ = registry->GetGauge("job.state");
  restarts_counter_ = registry->GetCounter("job.restarts");
  backoff_gauge_ = registry->GetGauge("job.backoff_nanos");
  budget_gauge_ = registry->GetGauge("job.retry_budget_remaining");
  state_gauge_.Set(static_cast<int64_t>(state()));
  budget_gauge_.Set(budget_remaining());
}

void RestartPolicy::SetState(JobState state) {
  state_.store(state, std::memory_order_release);
  state_gauge_.Set(static_cast<int64_t>(state));
}

std::optional<Nanos> RestartPolicy::OnFailure(Nanos now) {
  if (Terminal()) return std::nullopt;
  // Storm coalescing: a second symptom of the same incident (the snapshot
  // watchdog firing right after the member was declared down, a second
  // process dying before the first was re-forked) folds into the pending
  // restart.
  if (state() == JobState::kRestarting) return std::max<Nanos>(restart_due_ - now, 0);
  if (state() == JobState::kRunning && now - launched_at_ >= stability_period_) {
    backoff_.ResetLadder();
  }
  std::optional<Nanos> delay = backoff_.NextDelay();
  if (!delay.has_value()) {
    SetState(JobState::kFailed);
    return std::nullopt;
  }
  budget_remaining_.store(backoff_.budget_remaining(), std::memory_order_release);
  budget_gauge_.Set(backoff_.budget_remaining());
  backoff_gauge_.Set(*delay);
  restart_due_ = now + *delay;
  SetState(JobState::kRestarting);
  return delay;
}

void RestartPolicy::OnSuspend() {
  if (!Terminal()) SetState(JobState::kSuspended);
}

void RestartPolicy::OnFreeRestart(Nanos now) {
  if (Terminal() || RestartDue(now)) return;
  restart_due_ = now;
  backoff_gauge_.Set(0);
  SetState(JobState::kRestarting);
}

void RestartPolicy::OnRestartLaunched(Nanos now) {
  launched_at_ = now;
  restarts_.fetch_add(1, std::memory_order_acq_rel);
  restarts_counter_.Add(1);
  SetState(JobState::kRunning);
}

void RestartPolicy::OnCompleted() {
  if (state() != JobState::kFailed) SetState(JobState::kCompleted);
}

void RestartPolicy::OnFailed() { SetState(JobState::kFailed); }

}  // namespace jet::core
