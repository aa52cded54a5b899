// ClusterHealthMonitor driven directly: the test ticks it (from a thread of
// its own, or in virtual time), heartbeats cross an in-process network,
// link faults come from the network's fault injection, and the folded
// HealthReport is read through Snapshot() or as Tick returns it. SupervisorTest
// covers detection driving recovery end to end.

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/health_monitor.h"
#include "net/network.h"
#include "testkit/wait.h"

namespace jet::cluster {
namespace {

using testkit::HeldFalseFor;
using testkit::WaitUntil;

constexpr Nanos kWait = 5 * kNanosPerSecond;

// Thresholds wide enough that a loaded host's scheduling hiccups do not
// read as silence.
core::LivenessOptions TestOptions() {
  core::LivenessOptions options;
  options.heartbeat_interval = 10 * kNanosPerMilli;
  options.suspect_after = 150 * kNanosPerMilli;
  options.dead_after = 400 * kNanosPerMilli;
  return options;
}

std::vector<int32_t> Down(const ClusterHealthMonitor& monitor) {
  return monitor.Snapshot().down;
}

// Ticks the monitor from a thread every millisecond, well inside a
// heartbeat interval, as a cluster's control loop would; counts the
// changes of the folded report in `changes` (may be null).
class Ticker {
 public:
  explicit Ticker(ClusterHealthMonitor* monitor, std::atomic<int>* changes = nullptr)
      : thread_([this, monitor, changes]() {
          while (!stop_.load(std::memory_order_acquire)) {
            if (monitor->Tick(WallClock::Global().Now()).changed.has_value() &&
                changes != nullptr) {
              changes->fetch_add(1);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~Ticker() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(HealthMonitorTest, HealthyMeshReportsNothing) {
  net::Network network;
  std::atomic<int> changes{0};
  ClusterHealthMonitor monitor(&network, TestOptions());
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor, &changes);
  EXPECT_TRUE(HeldFalseFor([&monitor]() { return monitor.Snapshot() != HealthReport{}; },
                           300 * kNanosPerMilli));
  ticker.Stop();
  EXPECT_EQ(changes.load(), 0);
  EXPECT_EQ(monitor.refutation_count(), 0);
  network.Shutdown();
}

TEST(HealthMonitorTest, StoppedMemberGoesDownAndStaysDown) {
  net::Network network;
  ClusterHealthMonitor monitor(&network, TestOptions(), nullptr);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor);
  monitor.StopHeartbeats(1);
  const std::vector<int32_t> expected{1};
  ASSERT_TRUE(WaitUntil([&]() { return Down(monitor) == expected; }, kWait));
  // A dead process never refutes: nothing is latched, but nothing heals it.
  EXPECT_TRUE(HeldFalseFor([&]() { return Down(monitor) != expected; },
                           300 * kNanosPerMilli));
  EXPECT_TRUE(monitor.Snapshot().broken_links.empty());
  ticker.Stop();
  network.Shutdown();
}

// Two-phase detection: a partitioned link makes both ends suspected; a
// heartbeat that gets through after the heal, before the suspicion
// timeout, withdraws the suspicion and counts as a refutation.
TEST(HealthMonitorTest, LateHeartbeatRefutesSuspicion) {
  net::Network network;
  auto options = TestOptions();
  options.suspect_after = 50 * kNanosPerMilli;
  options.dead_after = 5 * kNanosPerSecond;  // far away: suspicion only
  ClusterHealthMonitor monitor(&network, options, nullptr);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor);

  network.Partition(1, 0);
  ASSERT_TRUE(WaitUntil(
      [&monitor]() { return monitor.SuspectedMembers() == std::vector<int32_t>{0, 1}; },
      kWait));
  EXPECT_TRUE(monitor.Snapshot().down.empty());

  network.Heal(1, 0);
  ASSERT_TRUE(WaitUntil([&monitor]() { return monitor.refutation_count() >= 1; }, kWait));
  ASSERT_TRUE(WaitUntil([&monitor]() { return monitor.SuspectedMembers().empty(); }, kWait));
  EXPECT_EQ(monitor.Snapshot(), HealthReport{});
  ticker.Stop();
  network.Shutdown();
}

TEST(HealthMonitorTest, TwoSilencedMembersAreBothDown) {
  net::Network network;
  ClusterHealthMonitor monitor(&network, TestOptions(), nullptr);
  for (int32_t m : {0, 1, 2, 3}) monitor.AddMember(m);
  Ticker ticker(&monitor);
  monitor.StopHeartbeats(1);
  monitor.StopHeartbeats(2);
  const std::vector<int32_t> expected{1, 2};
  ASSERT_TRUE(WaitUntil([&]() { return Down(monitor) == expected; }, kWait));
  EXPECT_TRUE(monitor.Snapshot().broken_links.empty());
  ticker.Stop();
  network.Shutdown();
}

// A partition between two members who both still hear a third is a link
// fault, not a death: neither end is down, the pair is a broken link.
TEST(HealthMonitorTest, TwoWayPartitionIsABrokenLinkNotADeath) {
  net::Network network;
  ClusterHealthMonitor monitor(&network, TestOptions(), nullptr);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor);
  const int64_t dropped_before = network.dropped_count();
  network.Partition(0, 1);
  const std::vector<std::pair<int32_t, int32_t>> expected{{0, 1}};
  ASSERT_TRUE(WaitUntil(
      [&monitor, &expected]() { return monitor.Snapshot().broken_links == expected; },
      kWait));
  EXPECT_TRUE(monitor.Snapshot().down.empty());
  EXPECT_GT(network.dropped_count(), dropped_before);  // heartbeats were eaten
  ticker.Stop();
  network.Shutdown();
}

// Rejoin: re-adding a member whose heartbeats stopped resumes them with
// fresh links, and a second death is reported again.
TEST(HealthMonitorTest, RejoinedMemberComesBackAndCanGoDownAgain) {
  net::Network network;
  ClusterHealthMonitor monitor(&network, TestOptions(), nullptr);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor);
  const std::vector<int32_t> expected{1};
  monitor.StopHeartbeats(1);
  ASSERT_TRUE(WaitUntil([&]() { return Down(monitor) == expected; }, kWait));

  monitor.AddMember(1);
  ASSERT_TRUE(WaitUntil([&]() { return Down(monitor).empty(); }, kWait));
  EXPECT_TRUE(HeldFalseFor([&]() { return !Down(monitor).empty(); }, 200 * kNanosPerMilli));

  monitor.StopHeartbeats(1);
  ASSERT_TRUE(WaitUntil([&]() { return Down(monitor) == expected; }, kWait));
  ticker.Stop();
  network.Shutdown();
}

// Snapshot() and the other accessors are polled from a thread other than
// the ticking one while heartbeats stop and resume (run under the tsan
// preset).
TEST(HealthMonitorTest, SnapshotCanBePolledFromAnotherThread) {
  net::Network network;
  ClusterHealthMonitor monitor(&network, TestOptions(), nullptr);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  Ticker ticker(&monitor);

  std::atomic<bool> saw_down{false};
  std::atomic<bool> stop_polling{false};
  std::thread poller([&]() {
    while (!stop_polling.load(std::memory_order_acquire)) {
      HealthReport report = monitor.Snapshot();
      (void)monitor.SuspectedMembers();
      (void)monitor.refutation_count();
      if (report.down == std::vector<int32_t>{2}) {
        saw_down.store(true, std::memory_order_release);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  monitor.StopHeartbeats(2);
  EXPECT_TRUE(
      WaitUntil([&saw_down]() { return saw_down.load(std::memory_order_acquire); }, kWait));
  monitor.AddMember(2);
  EXPECT_TRUE(WaitUntil([&]() { return Down(monitor).empty(); }, kWait));
  stop_polling.store(true, std::memory_order_release);
  poller.join();
  ticker.Stop();
  network.Shutdown();
}

// Ticks a monitor in virtual time: each tick's heartbeats land (in real
// time) before virtual time moves on, and `report` follows the reports
// Tick returns.
class VirtualTicker {
 public:
  VirtualTicker(ManualClock* clock, net::Network* network, ClusterHealthMonitor* monitor)
      : clock_(clock), network_(network), monitor_(monitor) {}

  // Advances virtual time by `after`, then ticks.
  void TickAfter(Nanos after) {
    clock_->Advance(after);
    ClusterHealthMonitor::TickResult result = monitor_->Tick(clock_->Now());
    if (result.changed.has_value()) report = std::move(*result.changed);
    ASSERT_TRUE(WaitUntil(
        [this]() { return network_->delivered_count() + network_->dropped_count() ==
                              network_->sent_count(); },
        kWait));
  }

  HealthReport report;

 private:
  ManualClock* clock_;
  net::Network* network_;
  ClusterHealthMonitor* monitor_;
};

// The loop that sends the heartbeats also judges them. In virtual time:
// after steady ticks, one tick that comes `dead_after` late (the loop was
// blocked, say by a restart) blames nobody for the loop's own silence, and
// a member that really went silent is still found down afterwards.
TEST(HealthMonitorTest, LateTickBlamesNobodyForTheLoopsSilence) {
  ManualClock clock(kNanosPerSecond);
  net::Network network;
  const core::LivenessOptions options = TestOptions();
  ClusterHealthMonitor monitor(&network, options, &clock);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  VirtualTicker ticker(&clock, &network, &monitor);
  const Nanos steady = options.heartbeat_interval / 2;
  for (int i = 0; i < 8; ++i) ticker.TickAfter(steady);
  ASSERT_EQ(ticker.report, HealthReport{});

  ticker.TickAfter(options.dead_after);  // the next tick comes dead_after late
  EXPECT_TRUE(ticker.report.down.empty());
  EXPECT_TRUE(ticker.report.suspected.empty());
  EXPECT_EQ(monitor.Snapshot(), HealthReport{});

  monitor.StopHeartbeats(1);
  const std::vector<int32_t> expected{1};
  for (Nanos waited = 0; waited <= options.dead_after + steady; waited += steady) {
    ticker.TickAfter(steady);
  }
  EXPECT_EQ(ticker.report.down, expected);
  network.Shutdown();
}

// The stall is credited, not a reset: what the monitor knew before a late
// tick survives it. A member already down stays down (a dead process never
// refutes), and a link already broken stays broken.
TEST(HealthMonitorTest, LateTickKeepsWhatWasKnownBeforeIt) {
  ManualClock clock(kNanosPerSecond);
  net::Network network;
  const core::LivenessOptions options = TestOptions();
  ClusterHealthMonitor monitor(&network, options, &clock);
  for (int32_t m : {0, 1, 2, 3}) monitor.AddMember(m);
  VirtualTicker ticker(&clock, &network, &monitor);
  const Nanos steady = options.heartbeat_interval / 2;
  for (int i = 0; i < 8; ++i) ticker.TickAfter(steady);

  monitor.StopHeartbeats(1);
  network.Partition(2, 3);
  for (Nanos waited = 0; waited <= options.dead_after + steady; waited += steady) {
    ticker.TickAfter(steady);
  }
  const HealthReport expected{{1}, {}, {{2, 3}}};
  ASSERT_EQ(ticker.report, expected);

  ticker.TickAfter(options.dead_after);
  EXPECT_EQ(ticker.report, expected);
  EXPECT_EQ(monitor.Snapshot(), expected);
  for (int i = 0; i < 4; ++i) ticker.TickAfter(steady);
  EXPECT_EQ(ticker.report, expected);
  network.Shutdown();
}

// Stalls that keep coming only slow detection down, by the time they
// credit: a member that dies while every tick is late is still found down
// once the un-credited time since its last heartbeat passes dead_after.
TEST(HealthMonitorTest, RecurringStallsDelayDetectionByTheCreditedTimeOnly) {
  ManualClock clock(kNanosPerSecond);
  net::Network network;
  const core::LivenessOptions options = TestOptions();
  ClusterHealthMonitor monitor(&network, options, &clock);
  for (int32_t m : {0, 1, 2}) monitor.AddMember(m);
  VirtualTicker ticker(&clock, &network, &monitor);
  const Nanos steady = options.heartbeat_interval / 2;
  for (int i = 0; i < 8; ++i) ticker.TickAfter(steady);

  monitor.StopHeartbeats(1);
  // Every tick now comes 3 intervals late, of which 2 are credited.
  const Nanos late = 3 * options.heartbeat_interval;
  const Nanos credit = late - options.heartbeat_interval;
  Nanos waited = 0;
  while (ticker.report.down.empty() && waited < 10 * kNanosPerSecond) {
    ticker.TickAfter(late);
    waited += late;
  }
  ASSERT_EQ(ticker.report.down, std::vector<int32_t>{1});
  // Detection took dead_after plus the credited stalls, give or take the
  // age of 1's last heartbeat and one tick's worth of ageing.
  const Nanos credited = waited / late * credit;
  EXPECT_GE(waited - credited, options.dead_after);
  EXPECT_LE(waited - credited, options.dead_after + 2 * options.heartbeat_interval);
  network.Shutdown();
}

// The quorum rule and the restart gate are pure functions of the
// membership and a report: table tests, no monitor.
struct QuorumCase {
  const char* name;
  std::vector<int32_t> members;
  HealthReport report;
  std::optional<std::vector<int32_t>> quorum;
};

TEST(QuorumRuleTest, QuorumSubsetTable) {
  const std::vector<QuorumCase> cases = {
      {"healthy mesh", {0, 1, 2}, {}, std::vector<int32_t>{0, 1, 2}},
      {"2-2 split", {0, 1, 2, 3},
       HealthReport{{}, {}, {{0, 2}, {0, 3}, {1, 2}, {1, 3}}}, std::nullopt},
      {"3 of 4, one broken link", {0, 1, 2, 3}, HealthReport{{}, {}, {{2, 3}}},
       std::vector<int32_t>{0, 1, 2}},
      {"3 of 4, one down", {0, 1, 2, 3}, HealthReport{{3}, {}, {}},
       std::vector<int32_t>{0, 1, 2}},
      {"one down, one broken link: 2 of 4", {0, 1, 2, 3}, HealthReport{{3}, {}, {{1, 2}}},
       std::nullopt},
      // a and b both hear c but not each other: the higher id goes.
      {"triangle", {0, 1, 2}, HealthReport{{}, {}, {{0, 1}}},
       std::vector<int32_t>{0, 2}},
      // A suspected member is still up: suspicion alone moves no quorum.
      {"suspect stays in", {0, 1, 2}, HealthReport{{}, {1}, {}},
       std::vector<int32_t>{0, 1, 2}},
      // Reports may name members outside the membership (already evicted).
      {"evicted member's link ignored", {0, 1, 2}, HealthReport{{}, {}, {{2, 5}}},
       std::vector<int32_t>{0, 1, 2}},
      {"lone survivor of two", {0, 1}, HealthReport{{1}, {}, {}}, std::nullopt},
  };
  for (const QuorumCase& c : cases) {
    EXPECT_EQ(QuorumSubset(c.members, c.report), c.quorum) << c.name;
  }
}

TEST(QuorumRuleTest, RestartGateNeedsEveryMemberHealthy) {
  const std::vector<int32_t> members = {0, 1, 2};
  EXPECT_TRUE(AllHealthy(members, HealthReport{}));
  EXPECT_FALSE(AllHealthy(members, HealthReport{{}, {1}, {}})) << "suspected member";
  EXPECT_FALSE(AllHealthy(members, HealthReport{{2}, {}, {}})) << "down member";
  EXPECT_FALSE(AllHealthy(members, HealthReport{{}, {}, {{0, 2}}})) << "broken link";
  // Members outside the membership do not hold the gate.
  EXPECT_TRUE(AllHealthy(members, HealthReport{{4}, {5}, {{2, 5}}}));
}

}  // namespace
}  // namespace jet::cluster
