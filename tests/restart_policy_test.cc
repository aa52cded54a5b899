// core::RestartPolicy and core::JudgeHeartbeat in virtual time: every call
// takes `now` from the test. No threads, no sleeps.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/restart_policy.h"
#include "obs/metrics_registry.h"

namespace jet::core {
namespace {

// A jitter-free ladder: 100, 200, 400, ... capped at 800.
RestartOptions PlainOptions(int32_t budget) {
  RestartOptions options;
  options.backoff.retry_budget = budget;
  options.backoff.initial_backoff = 100;
  options.backoff.backoff_multiplier = 2.0;
  options.backoff.max_backoff = 800;
  options.backoff.jitter_fraction = 0;
  options.stability_period = 1000;
  return options;
}

int64_t MetricValue(const obs::MetricsRegistry& registry, const std::string& name) {
  for (const auto& s : registry.Snapshot()) {
    if (s.id.name == name) return s.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

// The backoff ladder: deterministic per seed, exponential until capped,
// jittered within its configured fraction, and reset by a stable stretch.
TEST(RestartPolicyTest, BackoffIsExponentialJitteredAndSeeded) {
  RestartOptions options;
  options.backoff.retry_budget = 100;
  options.backoff.initial_backoff = 10 * kNanosPerMilli;
  options.backoff.backoff_multiplier = 2.0;
  options.backoff.max_backoff = 100 * kNanosPerMilli;
  options.backoff.jitter_fraction = 0.5;
  options.stability_period = kNanosPerSecond;

  auto ladder = [&options](int64_t job_id) {
    RestartPolicy sup(options, job_id, /*now=*/0);
    std::vector<Nanos> delays;
    Nanos now = 0;
    for (int i = 0; i < 6; ++i) {
      auto d = sup.OnFailure(now);
      EXPECT_TRUE(d.has_value());
      delays.push_back(*d);
      now += *d + 1;
      sup.OnRestartLaunched(now);  // quick relapse: no stability reset
    }
    return delays;
  };

  auto a = ladder(7);
  auto b = ladder(7);
  EXPECT_EQ(a, b) << "same seed + job id must give the same jitter stream";
  EXPECT_NE(a, ladder(8)) << "different job ids must de-synchronize";

  for (size_t i = 0; i < a.size(); ++i) {
    Nanos base = std::min<Nanos>(
        static_cast<Nanos>(10 * kNanosPerMilli * (1LL << i)), 100 * kNanosPerMilli);
    EXPECT_GE(a[i], base) << "step " << i;
    EXPECT_LE(a[i], base + base / 2) << "step " << i << " exceeds jitter bound";
  }

  // A long stable RUNNING stretch resets the exponent back to the bottom.
  RestartPolicy sup(options, 7, /*now=*/0);
  Nanos now = 0;
  for (int i = 0; i < 4; ++i) {
    auto d = sup.OnFailure(now);
    ASSERT_TRUE(d.has_value());
    now += *d + 1;
    sup.OnRestartLaunched(now);
  }
  now += 2 * options.stability_period;
  auto after_stable = sup.OnFailure(now);
  ASSERT_TRUE(after_stable.has_value());
  EXPECT_LE(*after_stable,
            options.backoff.initial_backoff + options.backoff.initial_backoff / 2);
}

// Incidents arriving while a restart is already pending coalesce into it:
// one root cause, one restart, one budget charge.
TEST(RestartPolicyTest, ConcurrentIncidentsCoalesceIntoOneRestart) {
  RestartOptions options;
  options.backoff.retry_budget = 5;
  RestartPolicy sup(options, 1, /*now=*/0);
  ASSERT_TRUE(sup.OnFailure(0).has_value());
  EXPECT_EQ(sup.budget_remaining(), 4);
  // Second symptom of the same incident: folded, not charged.
  ASSERT_TRUE(sup.OnFailure(1).has_value());
  EXPECT_EQ(sup.budget_remaining(), 4);
  EXPECT_EQ(sup.state(), JobState::kRestarting);
}

// A storm: more casualties arrive before the pending restart is launched,
// even after it fell due. They keep its due time and cost nothing; the one
// launch then answers them all.
TEST(RestartPolicyTest, StormBeforeLaunchIsFree) {
  RestartPolicy policy(PlainOptions(5), 1, /*now=*/0);
  EXPECT_EQ(policy.OnFailure(0), 100);
  EXPECT_EQ(policy.OnFailure(40), 60);  // the time left, not a new delay
  EXPECT_FALSE(policy.RestartDue(99));
  EXPECT_TRUE(policy.RestartDue(100));
  EXPECT_EQ(policy.OnFailure(150), 0);  // due but not launched yet
  EXPECT_EQ(policy.budget_remaining(), 4);
  EXPECT_TRUE(policy.RestartDue(150));

  policy.OnRestartLaunched(150);
  EXPECT_EQ(policy.state(), JobState::kRunning);
  EXPECT_EQ(policy.restarts(), 1);
  EXPECT_EQ(policy.budget_remaining(), 4);
  EXPECT_FALSE(policy.RestartDue(10'000));
}

// Once the restart is launched, a further incident is a new one: it is
// charged and climbs the ladder. In process mode this is a respawn that
// never rejoined and was killed.
TEST(RestartPolicyTest, IncidentAfterLaunchIsCharged) {
  RestartPolicy policy(PlainOptions(5), 1, /*now=*/0);
  ASSERT_EQ(policy.OnFailure(0), 100);
  policy.OnRestartLaunched(100);
  EXPECT_EQ(policy.OnFailure(120), 200);
  EXPECT_EQ(policy.budget_remaining(), 3);
  EXPECT_EQ(policy.state(), JobState::kRestarting);
  EXPECT_FALSE(policy.RestartDue(319));
  EXPECT_TRUE(policy.RestartDue(320));
}

// The ladder resets once the job ran `stability_period` since the last
// restart launch, whatever the time since the last incident.
TEST(RestartPolicyTest, StabilityResetIsTimedFromTheLastLaunch) {
  RestartPolicy policy(PlainOptions(5), 1, /*now=*/0);
  ASSERT_EQ(policy.OnFailure(0), 100);
  policy.OnRestartLaunched(900);  // launched late, e.g. behind the health gate
  // 1500 since the incident, 600 since the launch: no reset.
  EXPECT_EQ(policy.OnFailure(1500), 200);
  policy.OnRestartLaunched(1700);
  // 999 since the launch: still no reset.
  EXPECT_EQ(policy.OnFailure(2699), 400);
  policy.OnRestartLaunched(3099);
  // Exactly stability_period since the launch: back to the bottom rung.
  EXPECT_EQ(policy.OnFailure(4099), 100);
  EXPECT_EQ(policy.budget_remaining(), 1);
}

// Quorum loss parks the job for free, dropping any pending restart; the
// heal is a free restart due at once.
TEST(RestartPolicyTest, SuspendIsFreeAndResumeIsAFreeRestart) {
  RestartPolicy policy(PlainOptions(3), 1, /*now=*/0);
  policy.OnSuspend();
  EXPECT_EQ(policy.state(), JobState::kSuspended);
  EXPECT_FALSE(policy.RestartDue(10'000));
  policy.OnFreeRestart(10);
  EXPECT_EQ(policy.state(), JobState::kRestarting);
  EXPECT_TRUE(policy.RestartDue(10));
  policy.OnRestartLaunched(10);
  EXPECT_EQ(policy.restarts(), 1);
  EXPECT_EQ(policy.budget_remaining(), 3);

  // A charged restart still in its backoff: the suspension parks it, the
  // resume makes it due at once, and nothing more is charged.
  ASSERT_EQ(policy.OnFailure(20), 100);
  policy.OnSuspend();
  EXPECT_FALSE(policy.RestartDue(10'000));
  policy.OnFreeRestart(30);
  EXPECT_TRUE(policy.RestartDue(30));
  EXPECT_EQ(policy.budget_remaining(), 2);
}

// The budget runs out: the incident past it turns the job FAILED, which
// is terminal.
TEST(RestartPolicyTest, ExhaustionEndsInFailed) {
  RestartPolicy policy(PlainOptions(2), 1, /*now=*/0);
  Nanos now = 0;
  for (int i = 0; i < 2; ++i) {
    auto delay = policy.OnFailure(now);
    ASSERT_TRUE(delay.has_value());
    now += *delay;
    policy.OnRestartLaunched(now);
  }
  EXPECT_EQ(policy.budget_remaining(), 0);
  EXPECT_FALSE(policy.OnFailure(now + 1).has_value());
  EXPECT_EQ(policy.state(), JobState::kFailed);

  policy.OnFreeRestart(now + 2);
  policy.OnCompleted();
  EXPECT_EQ(policy.state(), JobState::kFailed);
  EXPECT_FALSE(policy.RestartDue(now + 3));
  EXPECT_FALSE(policy.OnFailure(now + 4).has_value());
  EXPECT_EQ(policy.restarts(), 2);
}

// The four job metrics follow the state machine.
TEST(RestartPolicyTest, MetricsFollowTheStateMachine) {
  obs::MetricsRegistry registry;
  RestartPolicy policy(PlainOptions(3), 1, /*now=*/0);
  policy.BindMetrics(&registry);
  EXPECT_EQ(MetricValue(registry, "job.state"), static_cast<int64_t>(JobState::kRunning));
  EXPECT_EQ(MetricValue(registry, "job.retry_budget_remaining"), 3);

  ASSERT_EQ(policy.OnFailure(0), 100);
  EXPECT_EQ(MetricValue(registry, "job.state"),
            static_cast<int64_t>(JobState::kRestarting));
  EXPECT_EQ(MetricValue(registry, "job.backoff_nanos"), 100);
  EXPECT_EQ(MetricValue(registry, "job.retry_budget_remaining"), 2);

  policy.OnRestartLaunched(100);
  EXPECT_EQ(MetricValue(registry, "job.restarts"), 1);
  policy.OnCompleted();
  EXPECT_EQ(MetricValue(registry, "job.state"), static_cast<int64_t>(JobState::kCompleted));
}

// The suspicion rule is strict at both thresholds, as both runtimes had it.
TEST(LivenessTest, JudgeHeartbeatIsStrictAtBothThresholds) {
  LivenessOptions options;
  options.suspect_after = 45;
  options.dead_after = 120;
  EXPECT_EQ(JudgeHeartbeat(0, options), Liveness::kFresh);
  EXPECT_EQ(JudgeHeartbeat(45, options), Liveness::kFresh);
  EXPECT_EQ(JudgeHeartbeat(46, options), Liveness::kSuspect);
  EXPECT_EQ(JudgeHeartbeat(120, options), Liveness::kSuspect);
  EXPECT_EQ(JudgeHeartbeat(121, options), Liveness::kDead);
}

}  // namespace
}  // namespace jet::core
