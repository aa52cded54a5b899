#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "testkit/chaos.h"
#include "testkit/wait.h"

namespace jet::testkit {
namespace {

using net::ChannelId;
using net::FaultPlan;
using net::LinkModel;
using net::Network;

constexpr LinkModel kFastLink{/*base_latency=*/50 * kNanosPerMicro, /*jitter=*/0};

// ---------------------------------------------------------------------------
// WaitUntil
// ---------------------------------------------------------------------------

TEST(WaitTest, ReturnsAsSoonAsPredicateHolds) {
  std::atomic<bool> flag{false};
  std::thread setter([&flag]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.store(true);
  });
  WallClock clock;
  Nanos t0 = clock.Now();
  EXPECT_TRUE(WaitUntil([&flag]() { return flag.load(); }, 5 * kNanosPerSecond));
  EXPECT_LT(clock.Now() - t0, kNanosPerSecond);  // far below the timeout
  setter.join();
}

TEST(WaitTest, TimesOutWhenPredicateNeverHolds) {
  EXPECT_FALSE(WaitUntil([]() { return false; }, 20 * kNanosPerMilli));
  EXPECT_TRUE(HeldFalseFor([]() { return false; }, 20 * kNanosPerMilli));
}

// ---------------------------------------------------------------------------
// Network fault plans & accounting
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, BlockedLinkDropsEverything) {
  Network network(kFastLink);
  ChannelId ab = network.OpenChannel(/*from=*/0, /*to=*/1);
  network.Partition(0, 1);
  std::atomic<int> delivered{0};
  for (int i = 0; i < 10; ++i) {
    network.Send(ab, [&delivered]() { delivered.fetch_add(1); });
  }
  EXPECT_EQ(network.dropped_count(), 10);
  EXPECT_TRUE(HeldFalseFor([&delivered]() { return delivered.load() > 0; },
                           20 * kNanosPerMilli));
}

TEST(FaultPlanTest, PartitionBlocksBothDirectionsAndHealRestores) {
  Network network(kFastLink);
  ChannelId ab = network.OpenChannel(0, 1);
  ChannelId ba = network.OpenChannel(1, 0);
  network.Partition(0, 1);
  EXPECT_TRUE(network.IsBlocked(0, 1));
  EXPECT_TRUE(network.IsBlocked(1, 0));
  std::atomic<int> delivered{0};
  network.Send(ab, [&delivered]() { delivered.fetch_add(1); });
  network.Send(ba, [&delivered]() { delivered.fetch_add(1); });
  EXPECT_EQ(network.dropped_count(), 2);

  network.Heal(0, 1);
  EXPECT_FALSE(network.IsBlocked(0, 1));
  network.Send(ab, [&delivered]() { delivered.fetch_add(1); });
  network.Send(ba, [&delivered]() { delivered.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&delivered]() { return delivered.load() == 2; },
                        2 * kNanosPerSecond));
}

TEST(FaultPlanTest, OneWayFaultLeavesReverseDirectionAlone) {
  Network network(kFastLink);
  ChannelId ab = network.OpenChannel(0, 1);
  ChannelId ba = network.OpenChannel(1, 0);
  FaultPlan plan;
  plan.blocked = true;
  network.SetLinkFault(0, 1, plan);
  std::atomic<int> forward{0};
  std::atomic<int> reverse{0};
  network.Send(ab, [&forward]() { forward.fetch_add(1); });
  network.Send(ba, [&reverse]() { reverse.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&reverse]() { return reverse.load() == 1; },
                        2 * kNanosPerSecond));
  EXPECT_EQ(forward.load(), 0);
  EXPECT_EQ(network.dropped_count(), 1);
}

TEST(FaultPlanTest, UntaggedChannelsAreImmuneToLinkFaults) {
  Network network(kFastLink);
  ChannelId untagged = network.OpenChannel();
  network.Partition(0, 1);
  std::atomic<int> delivered{0};
  network.Send(untagged, [&delivered]() { delivered.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&delivered]() { return delivered.load() == 1; },
                        2 * kNanosPerSecond));
  EXPECT_EQ(network.dropped_count(), 0);
}

TEST(FaultPlanTest, DropProbabilityIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    Network network(kFastLink, seed);
    ChannelId ch = network.OpenChannel(0, 1);
    FaultPlan plan;
    plan.drop_probability = 0.5;
    network.SetLinkFault(0, 1, plan);
    for (int i = 0; i < 200; ++i) {
      network.Send(ch, []() {});
    }
    return network.dropped_count();
  };
  int64_t first = run(7);
  EXPECT_EQ(first, run(7));  // same seed, same send sequence => same drops
  EXPECT_GT(first, 50);      // ~100 expected
  EXPECT_LT(first, 150);
  EXPECT_NE(first, run(8));  // different seed diverges (overwhelmingly likely)
}

// Send reports a drop to its caller exactly when it counts one, whether
// the link is blocked or the message lost its coin flip; the in-process
// exchange resets a link on that signal.
TEST(FaultPlanTest, SendReturnsFalseExactlyForCountedDrops) {
  Network network(kFastLink);
  ChannelId blocked = network.OpenChannel(0, 1);
  ChannelId lossy = network.OpenChannel(1, 2);
  ChannelId clean = network.OpenChannel(2, 0);
  network.Partition(0, 1);
  FaultPlan plan;
  plan.drop_probability = 0.5;
  network.SetLinkFault(1, 2, plan);
  int64_t refused = 0;
  for (int i = 0; i < 200; ++i) {
    for (ChannelId ch : {blocked, lossy, clean}) {
      const int64_t dropped_before = network.dropped_count();
      const bool sent = network.Send(ch, []() {});
      EXPECT_EQ(sent, network.dropped_count() == dropped_before) << "channel " << ch;
      if (!sent) ++refused;
      EXPECT_TRUE(sent || ch != clean);
      EXPECT_FALSE(sent && ch == blocked);
    }
  }
  EXPECT_EQ(refused, network.dropped_count());
  EXPECT_GT(refused, 250);  // 200 blocked + ~100 lost
  EXPECT_LT(refused, 350);
}

TEST(FaultPlanTest, ExtraLatencyDelaysDelivery) {
  Network network(kFastLink);
  ChannelId ch = network.OpenChannel(0, 1);
  FaultPlan plan;
  plan.extra_latency = 30 * kNanosPerMilli;
  network.SetLinkFault(0, 1, plan);
  WallClock clock;
  std::atomic<Nanos> delivered_at{0};
  Nanos sent_at = clock.Now();
  network.Send(ch, [&]() { delivered_at.store(clock.Now()); });
  ASSERT_TRUE(
      WaitUntil([&delivered_at]() { return delivered_at.load() != 0; },
                2 * kNanosPerSecond));
  EXPECT_GE(delivered_at.load() - sent_at, 30 * kNanosPerMilli);
}

TEST(FaultPlanTest, AccountingClosesAfterShutdown) {
  auto network = std::make_unique<Network>(kFastLink);
  ChannelId good = network->OpenChannel(0, 1);
  ChannelId bad = network->OpenChannel(1, 2);
  network->Partition(1, 2);
  std::atomic<int> delivered{0};
  for (int i = 0; i < 20; ++i) {
    network->Send(good, [&delivered]() { delivered.fetch_add(1); });
    network->Send(bad, [&delivered]() { delivered.fetch_add(1); });
  }
  // Queue one far-future message that shutdown will strand.
  network->set_link(LinkModel{10 * kNanosPerSecond, 0});
  network->Send(good, [&delivered]() { delivered.fetch_add(1); });
  ASSERT_TRUE(WaitUntil([&delivered]() { return delivered.load() >= 20; },
                        5 * kNanosPerSecond));
  network->Shutdown();
  // Send after shutdown: counted, dropped, never delivered.
  network->Send(good, [&delivered]() { delivered.fetch_add(1); });
  EXPECT_EQ(network->sent_count(), 42);
  EXPECT_EQ(network->sent_count(),
            network->delivered_count() + network->dropped_count());
  EXPECT_EQ(network->delivered_count(), 20);
}

// ---------------------------------------------------------------------------
// Timeline generator
// ---------------------------------------------------------------------------

TEST(TimelineTest, SameSeedSameTimeline) {
  ChaosTimelineOptions options;
  options.events = 6;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    auto a = GenerateTimeline(seed, options);
    auto b = GenerateTimeline(seed, options);
    ASSERT_EQ(TimelineToString(a), TimelineToString(b)) << "seed " << seed;
    ASSERT_FALSE(a.empty()) << "seed " << seed;
  }
  EXPECT_NE(TimelineToString(GenerateTimeline(1, options)),
            TimelineToString(GenerateTimeline(2, options)));
}

TEST(TimelineTest, GeneratedTimelinesAreValid) {
  ChaosTimelineOptions options;
  options.events = 8;
  options.initial_nodes = 3;
  options.min_alive = 2;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    auto timeline = GenerateTimeline(seed, options);
    std::set<int32_t> alive = {0, 1, 2};
    int32_t next_id = 3;
    int open_faults = 0;
    Nanos prev_at = 0;
    for (const auto& e : timeline) {
      ASSERT_GE(e.at, prev_at) << "seed " << seed << ": " << TimelineToString(timeline);
      prev_at = e.at;
      switch (e.type) {
        case ChaosEventType::kKillNode:
          ASSERT_TRUE(alive.count(e.a)) << "seed " << seed << " kills dead node";
          alive.erase(e.a);
          ASSERT_GE(static_cast<int32_t>(alive.size()), options.min_alive)
              << "seed " << seed << " drops below min_alive";
          break;
        case ChaosEventType::kAddNode:
          ASSERT_EQ(e.a, next_id) << "seed " << seed << " join id mismatch";
          alive.insert(next_id++);
          break;
        case ChaosEventType::kPartition:
        case ChaosEventType::kDelaySpike:
          ASSERT_NE(e.a, e.b);
          ++open_faults;
          ASSERT_LE(open_faults, 1) << "seed " << seed << " overlapping link faults";
          break;
        case ChaosEventType::kHeal:
        case ChaosEventType::kClearLink:
          --open_faults;
          break;
        case ChaosEventType::kStallWorker:
          ASSERT_GT(e.duration, 0);
          break;
      }
    }
    ASSERT_EQ(open_faults, 0)
        << "seed " << seed << " leaves a fault open: " << TimelineToString(timeline);
  }
}

}  // namespace
}  // namespace jet::testkit
