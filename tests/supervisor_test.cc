// Self-healing control plane tests: member death, snapshot watchdog,
// retry-budget exhaustion, flap damping and quorum-aware degradation, all
// without a test-driven KillNode call — detection and recovery are the
// supervisor's job (§4.4's autonomous story).
#include <string>

#include <gtest/gtest.h>

#include "cluster/jet_cluster.h"
#include "core/restart_policy.h"
#include "testkit/chaos.h"
#include "testkit/wait.h"

namespace jet::cluster {
namespace {

using testkit::ClusterFixture;
using testkit::FixtureOptions;
using testkit::HeldFalseFor;
using testkit::WaitUntil;

constexpr Nanos kWait = 10 * kNanosPerSecond;

// A member dies mid-snapshot. The watchdog is tighter than failure
// detection here, so the in-flight epoch must be aborted (and GC'd) before
// the death is even diagnosed; then the control plane evicts the member
// and restarts the job from the last committed snapshot on the survivors.
// Restart count, abort count and the final RUNNING state are all readable
// from DiagnosticsDump().
TEST(SupervisorTest, KillDuringSnapshotAbortsEpochAndSelfHeals) {
  FixtureOptions options;
  options.supervisor.snapshot_ack_timeout = 120 * kNanosPerMilli;
  options.supervisor.liveness.dead_after = 400 * kNanosPerMilli;
  options.source_duration = 2 * kNanosPerSecond;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(2, kWait));

  core::RestartPolicy* sup = fixture.job()->supervisor();
  ASSERT_TRUE(fixture.cluster().CrashNode(2).ok());

  // The coordinator's next epoch cannot complete with a dead participant:
  // the watchdog must abandon it well before detection fires.
  ASSERT_TRUE(WaitUntil(
      [&fixture]() { return fixture.job()->snapshots_aborted() >= 1; }, kWait));
  // Detection then evicts the member and the supervisor restarts the job.
  ASSERT_TRUE(WaitUntil([&fixture]() {
                return fixture.cluster().AliveNodes().size() == 2;
              }, kWait));
  ASSERT_TRUE(WaitUntil([sup]() {
                return sup->state() == core::JobState::kRunning && sup->restarts() >= 1;
              }, kWait));

  // The whole story is visible to an operator in the diagnostics dump.
  auto dump = fixture.cluster().DiagnosticsDump();
  EXPECT_NE(dump.json.find("job.state"), std::string::npos);
  EXPECT_NE(dump.json.find("job.restarts"), std::string::npos);
  EXPECT_NE(dump.json.find("job.backoff_nanos"), std::string::npos);
  EXPECT_NE(dump.json.find("snapshot.aborted"), std::string::npos);
  EXPECT_NE(dump.prometheus.find("job_state"), std::string::npos);

  ASSERT_TRUE(fixture.JoinJob().ok());
  // COMPLETED is recorded by the control loop's next reconcile tick.
  EXPECT_TRUE(WaitUntil(
      [sup]() { return sup->state() == core::JobState::kCompleted; }, kWait));
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  Status invariants = fixture.VerifyClusterInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

// Retry budget exhaustion: with a budget of one, the second member death
// cannot be recovered from and the job must land in terminal FAILED, with
// Join() releasing its caller with an error instead of hanging.
TEST(SupervisorTest, RetryBudgetExhaustionFailsTerminally) {
  FixtureOptions options;
  options.initial_nodes = 5;
  options.supervisor.restart.backoff.retry_budget = 1;
  // Keep the watchdog out of the way so only member deaths are charged.
  options.supervisor.snapshot_ack_timeout = 5 * kNanosPerSecond;
  options.source_duration = 30 * kNanosPerSecond;  // never finishes naturally
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, kWait));

  core::RestartPolicy* sup = fixture.job()->supervisor();
  EXPECT_EQ(sup->budget_remaining(), 1);

  ASSERT_TRUE(fixture.cluster().CrashNode(4).ok());
  ASSERT_TRUE(WaitUntil([sup]() {
                return sup->state() == core::JobState::kRunning && sup->restarts() >= 1;
              }, kWait));
  EXPECT_EQ(sup->budget_remaining(), 0);

  ASSERT_TRUE(fixture.cluster().CrashNode(3).ok());
  ASSERT_TRUE(WaitUntil([sup]() { return sup->state() == core::JobState::kFailed; }, kWait));

  Status join = fixture.JoinJob();
  EXPECT_FALSE(join.ok());
  EXPECT_NE(join.ToString().find("retry budget exhausted"), std::string::npos)
      << join.ToString();
  EXPECT_EQ(sup->state(), core::JobState::kFailed);
}

// Quorum-aware degradation: a 2-2 partition leaves no majority, so the
// job suspends — no split-brain double-processing, no backup promotion,
// no budget charge for the suspension (the frames the cut dropped charge
// the attempt they broke, once). Healing restores quorum and the job
// resumes on its own, still exactly-once.
TEST(SupervisorTest, MinorityPartitionSuspendsThenResumes) {
  FixtureOptions options;
  options.initial_nodes = 4;
  options.supervisor.snapshot_ack_timeout = 5 * kNanosPerSecond;
  // The job must outlive the partition: its first commit and the
  // suspension may each take up to kWait.
  options.source_duration = 2 * kWait;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, kWait));

  core::RestartPolicy* sup = fixture.job()->supervisor();
  const int32_t budget = sup->budget_remaining();

  // Split {0,1} from {2,3}: both halves are minorities.
  net::Network& network = fixture.network();
  network.Partition(0, 2);
  network.Partition(0, 3);
  network.Partition(1, 2);
  network.Partition(1, 3);

  ASSERT_TRUE(
      WaitUntil([sup]() { return sup->state() == core::JobState::kSuspended; }, kWait));
  // No membership change happened: suspension is graceful degradation, not
  // eviction.
  EXPECT_EQ(fixture.cluster().AliveNodes().size(), 4u);

  network.Heal(0, 2);
  network.Heal(0, 3);
  network.Heal(1, 2);
  network.Heal(1, 3);

  ASSERT_TRUE(
      WaitUntil([sup]() { return sup->state() == core::JobState::kRunning; }, kWait));
  EXPECT_GE(sup->budget_remaining(), budget - 1) << "one incident, one charge";
  ASSERT_TRUE(fixture.JoinJob().ok());
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

// Flap damping: a transient heartbeat delay pushes a member into the
// suspected set, a fresh heartbeat refutes it, and the control plane never
// restarts anything — suspicion alone is not failure.
TEST(SupervisorTest, FlappingSuspicionIsRefutedWithoutRestart) {
  FixtureOptions options;
  options.supervisor.snapshot_ack_timeout = 5 * kNanosPerSecond;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, kWait));

  core::RestartPolicy* sup = fixture.job()->supervisor();
  ClusterHealthMonitor* monitor = fixture.cluster().health_monitor();

  // A delay spike (no loss!) longer than suspect_after but far below the
  // suspicion timeout: heartbeats arrive late enough to raise suspicion
  // and then refute it.
  net::Network& network = fixture.network();
  net::FaultPlan plan;
  plan.extra_latency = 70 * kNanosPerMilli;
  network.SetLinkFault(0, 1, plan);
  network.SetLinkFault(1, 0, plan);

  ASSERT_TRUE(
      WaitUntil([monitor]() { return monitor->refutation_count() >= 1; }, kWait));

  network.SetLinkFault(0, 1, net::FaultPlan{});
  network.SetLinkFault(1, 0, net::FaultPlan{});

  ASSERT_TRUE(fixture.JoinJob().ok());
  EXPECT_EQ(sup->restarts(), 0) << "suspicion alone must not trigger a restart";
  EXPECT_EQ(sup->budget_remaining(), fixture.cluster().config().supervisor.restart.backoff.retry_budget);
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
}

// Scale-out under supervision: AddNode routes through the control plane as
// a free restart — no budget charge, and the job still completes exactly
// once on the grown membership.
TEST(SupervisorTest, ScaleOutIsAFreeRestart) {
  FixtureOptions options;
  options.supervisor.snapshot_ack_timeout = 5 * kNanosPerSecond;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, kWait));

  core::RestartPolicy* sup = fixture.job()->supervisor();
  auto added = fixture.cluster().AddNode();
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(WaitUntil([sup]() {
                return sup->state() == core::JobState::kRunning && sup->restarts() >= 1;
              }, kWait));
  EXPECT_EQ(sup->budget_remaining(), fixture.cluster().config().supervisor.restart.backoff.retry_budget);

  ASSERT_TRUE(fixture.JoinJob().ok());
  EXPECT_EQ(fixture.cluster().AliveNodes().size(), 4u);
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
}

}  // namespace
}  // namespace jet::cluster
