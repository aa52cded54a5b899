// Seeded chaos suite: randomized fault timelines (kill / join / partition /
// heal / delay spike / GC stall) run against a live exactly-once cluster
// job, and the §4.4 recovery protocol must keep the results exact. Every
// timeline derives purely from its seed; a failing seed replays with
//   JETSIM_CHAOS_SEED=<seed> ./chaos_test --gtest_filter='*SingleSeedFromEnv*'
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "testkit/chaos.h"
#include "testkit/wait.h"

namespace jet::testkit {
namespace {

// One full seeded chaos run: bring up the fixture, execute the timeline,
// then check exactly-once output, snapshot and table-version monotonicity,
// the supervisor finishing in COMPLETED, partition-table invariants, and
// network delivery accounting. Nobody scripts the recovery: kills are bare
// fail-stops (CrashNode) and heals just unblock the link; detection,
// eviction, suspension and restarts are the control plane's doing.
// `options` picks the fixture's shape; the timeline depends on the seed only.
void RunSeededChaos(uint64_t seed, const FixtureOptions& options, const std::string& reproduce) {
  ChaosTimelineOptions timeline_options;
  auto timeline = GenerateTimeline(seed, timeline_options);
  SCOPED_TRACE("chaos seed " + std::to_string(seed) +
               " timeline: " + TimelineToString(timeline) + "\nreproduce: " + reproduce);

  ClusterFixture fixture(options);
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
  // COMPLETED is recorded by the control loop's next reconcile tick.
  EXPECT_TRUE(WaitUntil(
      [&fixture]() {
        return fixture.job()->supervisor()->state() == core::JobState::kCompleted;
      },
      5 * kNanosPerSecond))
      << applied;

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

std::string ReproduceFromEnv(uint64_t seed) {
  return "JETSIM_CHAOS_SEED=" + std::to_string(seed) +
         " ./chaos_test --gtest_filter='*SingleSeedFromEnv*'";
}

class ChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSuite, SeededTimelineKeepsExactlyOnce) {
  RunSeededChaos(GetParam(), FixtureOptions{}, ReproduceFromEnv(GetParam()));
}

// >= 20 seeded random fault timelines (acceptance criterion). Each
// parameter is its own ctest entry, so the suite parallelizes under -j.
INSTANTIATE_TEST_SUITE_P(SeededTimelines, ChaosSuite,
                         ::testing::Range<uint64_t>(1, 21));

// The first 10 timelines again, with every exchange frame round-tripped
// through the wire codec (serialize_exchange_frames): the self-healing
// restarts, the link-reset rule and the barriers must hold on the encoded
// path too, which the scripted Serialized* cases below cover only for
// one kill: here barriers, watermarks and done markers of restored
// attempts cross the codec under partitions, delay spikes, stalls and
// joins. The suite keeps the name it had when a chaos run could also be
// scripted, so its ctest ids and their history carry over.
class UnattendedChaosSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnattendedChaosSuite, SelfHealingKeepsExactlyOnce) {
  FixtureOptions options;
  options.serialize_exchange_frames = true;
  RunSeededChaos(GetParam(), options,
                 "ctest -R 'UnattendedChaosSuite.*/" + std::to_string(GetParam()) + "$'");
}

INSTANTIATE_TEST_SUITE_P(SeededTimelines, UnattendedChaosSuite,
                         ::testing::Range<uint64_t>(1, 11));

// One-command reproduction of a failing seed from ChaosSuite.
TEST(ChaosRepro, SingleSeedFromEnv) {
  const char* seed_env = std::getenv("JETSIM_CHAOS_SEED");
  if (seed_env == nullptr) {
    GTEST_SKIP() << "set JETSIM_CHAOS_SEED=<seed> to replay one timeline";
  }
  uint64_t seed = std::strtoull(seed_env, nullptr, 10);
  RunSeededChaos(seed, FixtureOptions{}, ReproduceFromEnv(seed));
}

// Acceptance criterion: a link partition between two nodes — with NO node
// death — is survivable. The job stalls while the link is down (messages
// between the pair are dropped and counted), then Heal lets the control
// plane restart it from the last committed snapshot, and the results are
// exact on the full membership.
TEST(ChaosScriptTest, LinkPartitionWithoutNodeDeathIsSurvivable) {
  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(2, 5 * kNanosPerSecond));

  net::Network& network = fixture.network();
  int64_t dropped_before = network.dropped_count();
  network.Partition(0, 1);
  // The partition must actually bite: traffic between nodes 0 and 1 is
  // being dropped (the exchange is all-to-all, so a running job always
  // crosses this link), and a lost exchange frame failed the attempt.
  ASSERT_TRUE(WaitUntil(
      [&network, dropped_before]() { return network.dropped_count() > dropped_before; },
      5 * kNanosPerSecond))
      << "partition dropped no traffic";
  core::RestartPolicy* policy = fixture.job()->supervisor();
  ASSERT_TRUE(WaitUntil([policy]() { return policy->state() != core::JobState::kRunning; },
                        5 * kNanosPerSecond))
      << "no exchange frame was lost";

  network.Heal(0, 1);

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

// A partition that heals before the health monitor notices it (40 ms is
// under `suspect_after`) must not lose events. The frames it dropped reset
// their exchange link, so the attempt that lost them can neither commit a
// later epoch nor complete; the control loop restarts it from the last
// committed snapshot, once the cut could have been suspected, so the
// incident costs the retry budget one charge.
TEST(ChaosScriptTest, ShortPartitionHealedBeforeDetectionKeepsExactlyOnce) {
  ClusterFixture fixture;
  ASSERT_TRUE(fixture.SubmitWindowedJob().ok());
  ASSERT_TRUE(fixture.WaitForCommittedSnapshot(1, 5 * kNanosPerSecond));

  core::RestartPolicy* policy = fixture.job()->supervisor();
  const int32_t budget = policy->budget_remaining();
  net::Network& network = fixture.network();
  const int64_t dropped_before = network.dropped_count();
  network.Partition(0, 1);
  ASSERT_TRUE(WaitUntil(
      [&network, dropped_before]() { return network.dropped_count() > dropped_before; },
      5 * kNanosPerSecond))
      << "partition dropped no traffic";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  network.Heal(0, 1);

  ASSERT_TRUE(fixture.JoinJob().ok());
  EXPECT_GE(policy->budget_remaining(), budget - 1) << "one incident, one charge";
  Status exact = fixture.VerifyExactlyOnce();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
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
