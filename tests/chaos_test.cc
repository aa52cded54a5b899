// Seeded chaos suite: randomized fault timelines (kill / join / partition /
// heal / delay spike / GC stall) run against a live exactly-once cluster
// job, and the §4.4 recovery protocol must keep the results exact. Every
// timeline derives purely from its seed; a failing seed replays with
//   JETSIM_CHAOS_SEED=<seed> ./chaos_test --gtest_filter='*SingleSeedFromEnv*'
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "testkit/chaos.h"
#include "testkit/wait.h"

namespace jet::testkit {
namespace {

// One full seeded chaos run: bring up the fixture, execute the timeline,
// then check exactly-once output, snapshot monotonicity, partition-table
// invariants, and network delivery accounting.
void RunSeededChaos(uint64_t seed) {
  ChaosTimelineOptions timeline_options;
  auto timeline = GenerateTimeline(seed, timeline_options);
  SCOPED_TRACE("chaos seed " + std::to_string(seed) +
               " timeline: " + TimelineToString(timeline) +
               "\nreproduce: JETSIM_CHAOS_SEED=" + std::to_string(seed) +
               " ./chaos_test --gtest_filter='*SingleSeedFromEnv*'");

  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  // Give the job a head start so most timelines recover from a real
  // snapshot rather than replaying from scratch.
  fixture.WaitForCommittedSnapshot(1, kNanosPerSecond);

  // Snapshot monotonicity watcher: committed ids must never go backwards,
  // across any number of recoveries.
  std::atomic<bool> stop_watcher{false};
  std::atomic<bool> monotonic{true};
  std::thread watcher([&]() {
    int64_t prev = 0;
    while (!stop_watcher.load(std::memory_order_acquire)) {
      int64_t cur = fixture.job()->last_committed_snapshot();
      if (cur < prev) monotonic.store(false, std::memory_order_release);
      if (cur > prev) prev = cur;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ChaosScheduler scheduler(&fixture.cluster(), timeline);
  Status chaos = scheduler.Run();
  Status join = fixture.JoinJob();
  stop_watcher.store(true, std::memory_order_release);
  watcher.join();

  std::string applied;
  for (const auto& line : scheduler.log()) applied += "\n  " + line;
  ASSERT_TRUE(chaos.ok()) << "chaos scheduler failed: " << chaos.ToString() << applied;
  ASSERT_TRUE(join.ok()) << join.ToString() << applied;
  EXPECT_TRUE(monotonic.load()) << "committed snapshot id went backwards" << applied;

  // Partition-table version monotonicity across the whole event sequence.
  const auto& versions = scheduler.table_versions();
  for (size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GE(versions[i], versions[i - 1]) << "table version regressed" << applied;
  }

  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString() << applied;
  Status invariants = fixture.VerifyClusterInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString() << applied;
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString() << applied;
}

class ChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSuite, SeededTimelineKeepsExactlyOnce) { RunSeededChaos(GetParam()); }

// >= 20 seeded random fault timelines (acceptance criterion). Each
// parameter is its own ctest entry, so the suite parallelizes under -j.
INSTANTIATE_TEST_SUITE_P(SeededTimelines, ChaosSuite,
                         ::testing::Range<uint64_t>(1, 21));

// Unattended variant: the SAME seeded timelines, but nobody scripts the
// recovery. Kills are bare fail-stops (CrashNode) and heals just unblock
// the link; detection, eviction, suspension and restarts are entirely the
// self-healing control plane's doing, and the results must still be
// exactly-once with the supervisor finishing in COMPLETED.
void RunUnattendedChaos(uint64_t seed) {
  ChaosTimelineOptions timeline_options;
  auto timeline = GenerateTimeline(seed, timeline_options);
  SCOPED_TRACE("unattended chaos seed " + std::to_string(seed) +
               " timeline: " + TimelineToString(timeline) +
               "\nreproduce: JETSIM_CHAOS_SEED=" + std::to_string(seed) +
               " ./chaos_test --gtest_filter='*UnattendedSeedFromEnv*'");

  FixtureOptions options;
  options.supervisor.enabled = true;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  fixture.WaitForCommittedSnapshot(1, kNanosPerSecond);

  ChaosScheduler scheduler(&fixture.cluster(), timeline, /*unattended=*/true);
  Status chaos = scheduler.Run();
  Status join = fixture.JoinJob();

  std::string applied;
  for (const auto& line : scheduler.log()) applied += "\n  " + line;
  ASSERT_TRUE(chaos.ok()) << "chaos scheduler failed: " << chaos.ToString() << applied;
  ASSERT_TRUE(join.ok()) << join.ToString() << applied;
  // COMPLETED is recorded by the control loop's next reconcile tick.
  EXPECT_TRUE(WaitUntil(
      [&fixture]() {
        return fixture.job()->supervisor()->state() == core::JobState::kCompleted;
      },
      5 * kNanosPerSecond))
      << applied;

  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString() << applied;
  Status invariants = fixture.VerifyClusterInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString() << applied;
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString() << applied;
}

class UnattendedChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnattendedChaosSuite, SelfHealingKeepsExactlyOnce) {
  RunUnattendedChaos(GetParam());
}

INSTANTIATE_TEST_SUITE_P(SeededTimelines, UnattendedChaosSuite,
                         ::testing::Range<uint64_t>(1, 11));

// One-command reproduction of a failing unattended seed.
TEST(ChaosRepro, UnattendedSeedFromEnv) {
  const char* seed_env = std::getenv("JETSIM_CHAOS_SEED");
  if (seed_env == nullptr) {
    GTEST_SKIP() << "set JETSIM_CHAOS_SEED=<seed> to replay one timeline";
  }
  RunUnattendedChaos(std::strtoull(seed_env, nullptr, 10));
}

// One-command reproduction of a failing seed from the suite above.
TEST(ChaosRepro, SingleSeedFromEnv) {
  const char* seed_env = std::getenv("JETSIM_CHAOS_SEED");
  if (seed_env == nullptr) {
    GTEST_SKIP() << "set JETSIM_CHAOS_SEED=<seed> to replay one timeline";
  }
  RunSeededChaos(std::strtoull(seed_env, nullptr, 10));
}

// Acceptance criterion: a link partition between two nodes — with NO node
// death — is survivable. The job stalls while the link is down (messages
// between the pair are dropped and counted), then Heal + restart from the
// last committed snapshot recovers exact results on the full membership.
TEST(ChaosScriptTest, LinkPartitionWithoutNodeDeathIsSurvivable) {
  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(2, 5 * kNanosPerSecond));

  net::Network& network = fixture.network();
  int64_t dropped_before = network.dropped_count();
  network.Partition(0, 1);
  // The partition must actually bite: traffic between nodes 0 and 1 is
  // being dropped (the exchange is all-to-all, so a running job always
  // crosses this link).
  ASSERT_TRUE(WaitUntil(
      [&network, dropped_before]() { return network.dropped_count() > dropped_before; },
      5 * kNanosPerSecond))
      << "partition dropped no traffic";

  ASSERT_TRUE(
      fixture.cluster().RecoverAfterFault([&network]() { network.Heal(0, 1); }).ok());

  ASSERT_TRUE(fixture.JoinJob().ok());
  EXPECT_EQ(fixture.cluster().AliveNodes().size(), 3u) << "no node died";
  EXPECT_GE(fixture.job()->attempts_started(), 2);
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  Status invariants = fixture.VerifyClusterInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

// GC-style stall: freezing one member's workers mid-job delays output but
// must not lose or duplicate anything (no restart is even needed).
TEST(ChaosScriptTest, WorkerStallKeepsExactlyOnce) {
  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, 5 * kNanosPerSecond));
  ASSERT_TRUE(fixture.cluster().StallNode(1, 200 * kNanosPerMilli).ok());
  ASSERT_TRUE(fixture.JoinJob().ok());
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

// Scripted (non-seeded) timeline: kill, join, partition, heal in sequence,
// exercising the scheduler exactly as the seeded suite does but with a
// hand-written schedule.
TEST(ChaosScriptTest, ScriptedKillJoinPartitionHeal) {
  std::vector<ChaosEvent> timeline;
  ChaosEvent kill;
  kill.at = 250 * kNanosPerMilli;
  kill.type = ChaosEventType::kKillNode;
  kill.a = 1;
  timeline.push_back(kill);
  ChaosEvent join;
  join.at = 500 * kNanosPerMilli;
  join.type = ChaosEventType::kAddNode;
  join.a = 3;  // JetCluster assigns ids sequentially from initial_nodes
  timeline.push_back(join);
  ChaosEvent part;
  part.at = 750 * kNanosPerMilli;
  part.type = ChaosEventType::kPartition;
  part.a = 0;
  part.b = 3;
  timeline.push_back(part);
  ChaosEvent heal;
  heal.at = 1'050 * kNanosPerMilli;
  heal.type = ChaosEventType::kHeal;
  heal.a = 0;
  heal.b = 3;
  timeline.push_back(heal);

  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  fixture.WaitForCommittedSnapshot(1, kNanosPerSecond);
  ChaosScheduler scheduler(&fixture.cluster(), timeline);
  Status chaos = scheduler.Run();
  std::string applied;
  for (const auto& line : scheduler.log()) applied += "\n  " + line;
  ASSERT_TRUE(chaos.ok()) << chaos.ToString() << applied;
  ASSERT_TRUE(fixture.JoinJob().ok()) << applied;
  EXPECT_GE(fixture.job()->attempts_started(), 2);
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString() << applied;
  Status invariants = fixture.VerifyClusterInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString() << applied;
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString() << applied;
}

// With serialize_exchange_frames every distributed hop round-trips its
// frames through the wire codec — the same bytes process mode puts on
// sockets — and the exactly-once result must be unchanged.
TEST(ChaosScriptTest, SerializedExchangeFramesKeepExactlyOnce) {
  FixtureOptions options;
  options.serialize_exchange_frames = true;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.JoinJob().ok());
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  Status accounting = fixture.VerifyDeliveryAccounting();
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

// Serialization plus a node kill: barriers and watermarks survive the
// codec round-trip through a §4.4 recovery.
TEST(ChaosScriptTest, SerializedFramesSurviveNodeKill) {
  FixtureOptions options;
  options.serialize_exchange_frames = true;
  ClusterFixture fixture(options);
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, 5 * kNanosPerSecond));
  ASSERT_TRUE(fixture.cluster().KillNode(1).ok());
  ASSERT_TRUE(fixture.JoinJob().ok());
  EXPECT_GE(fixture.job()->attempts_started(), 2);
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
}

}  // namespace
}  // namespace jet::testkit
