#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/exchange.h"
#include "net/flow_control.h"
#include "net/network.h"
#include "testkit/wait.h"

namespace jet::net {
namespace {

using testkit::WaitUntil;

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(NetworkTest, DeliversMessages) {
  Network network(LinkModel{/*base=*/100'000, /*jitter=*/0});
  ChannelId ch = network.OpenChannel();
  std::atomic<int> delivered{0};
  for (int i = 0; i < 10; ++i) {
    network.Send(ch, [&delivered]() { delivered.fetch_add(1); });
  }
  EXPECT_TRUE(WaitUntil([&delivered]() { return delivered.load() >= 10; },
                        5 * kNanosPerSecond));
  EXPECT_EQ(delivered.load(), 10);
  EXPECT_EQ(network.delivered_count(), 10);
}

TEST(NetworkTest, FifoPerChannelDespiteJitter) {
  Network network(LinkModel{/*base=*/50'000, /*jitter=*/500'000});
  ChannelId ch = network.OpenChannel();
  std::vector<int> order;
  std::mutex mutex;
  constexpr int kN = 200;
  std::atomic<int> delivered{0};
  for (int i = 0; i < kN; ++i) {
    network.Send(ch, [i, &order, &mutex, &delivered]() {
      std::scoped_lock lock(mutex);
      order.push_back(i);
      delivered.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitUntil([&delivered]() { return delivered.load() >= kN; },
                        10 * kNanosPerSecond));
  ASSERT_EQ(order.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(NetworkTest, LatencyIsApplied) {
  Network network(LinkModel{/*base=*/20 * kNanosPerMilli, /*jitter=*/0});
  ChannelId ch = network.OpenChannel();
  WallClock clock;
  std::atomic<Nanos> delivered_at{0};
  Nanos sent_at = clock.Now();
  network.Send(ch, [&]() { delivered_at.store(clock.Now()); });
  ASSERT_TRUE(WaitUntil([&delivered_at]() { return delivered_at.load() != 0; },
                        5 * kNanosPerSecond));
  EXPECT_GE(delivered_at.load() - sent_at, 20 * kNanosPerMilli);
}

TEST(NetworkTest, ShutdownDropsUndelivered) {
  auto network = std::make_unique<Network>(LinkModel{10 * kNanosPerSecond, 0});
  ChannelId ch = network->OpenChannel();
  std::atomic<int> delivered{0};
  network->Send(ch, [&delivered]() { delivered.fetch_add(1); });
  network->Shutdown();
  EXPECT_EQ(delivered.load(), 0);
  // A message stranded by shutdown is not silently lost from the books: it
  // is counted as dropped, as is a send issued after shutdown.
  network->Send(ch, [&delivered]() { delivered.fetch_add(1); });
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(network->sent_count(), 2);
  EXPECT_EQ(network->dropped_count(), 2);
  EXPECT_EQ(network->sent_count(),
            network->delivered_count() + network->dropped_count());
}

// ---------------------------------------------------------------------------
// Flow control (§3.3)
// ---------------------------------------------------------------------------

TEST(FlowControlTest, SenderBlockedUntilFirstAck) {
  SenderFlowState flow;
  EXPECT_FALSE(flow.MaySend(0));
  flow.OnAck(100);
  EXPECT_TRUE(flow.MaySend(0));
  EXPECT_TRUE(flow.MaySend(99));
  EXPECT_FALSE(flow.MaySend(100));
}

TEST(FlowControlTest, AcksAreMonotonic) {
  SenderFlowState flow;
  flow.OnAck(100);
  flow.OnAck(50);  // late/reordered ack must not shrink the window
  EXPECT_TRUE(flow.MaySend(99));
}

TEST(FlowControlTest, FirstAckIsImmediate) {
  ReceiveWindowController ctl;
  int64_t limit = ctl.MaybeAck(/*now=*/0, /*processed=*/0);
  EXPECT_GT(limit, 0);  // initial window granted immediately
}

TEST(FlowControlTest, AcksRespectInterval) {
  ReceiveWindowController::Options options;
  options.ack_interval = 100 * kNanosPerMilli;
  ReceiveWindowController ctl(options);
  EXPECT_GT(ctl.MaybeAck(0, 0), 0);
  EXPECT_EQ(ctl.MaybeAck(50 * kNanosPerMilli, 1000), -1);  // too soon
  EXPECT_GT(ctl.MaybeAck(100 * kNanosPerMilli, 1000), 0);
}

TEST(FlowControlTest, WindowAdaptsToThroughput) {
  // Paper: "In stable state the receive_window contains roughly 300
  // milliseconds' worth of data" (3x the 100ms ack period's throughput).
  ReceiveWindowController::Options options;
  options.ack_interval = 100 * kNanosPerMilli;
  options.window_multiplier = 3.0;
  options.max_window = 100'000'000;
  ReceiveWindowController ctl(options);

  Nanos now = 0;
  int64_t processed = 0;
  (void)ctl.MaybeAck(now, processed);
  // Steady 50k items per 100ms ack period.
  for (int i = 0; i < 20; ++i) {
    now += 100 * kNanosPerMilli;
    processed += 50'000;
    int64_t limit = ctl.MaybeAck(now, processed);
    ASSERT_GT(limit, 0);
  }
  EXPECT_NEAR(static_cast<double>(ctl.window()), 150'000, 1'500);  // 3 x 50k

  // Throughput drops 10x; the window shrinks with it.
  for (int i = 0; i < 20; ++i) {
    now += 100 * kNanosPerMilli;
    processed += 5'000;
    (void)ctl.MaybeAck(now, processed);
  }
  EXPECT_NEAR(static_cast<double>(ctl.window()), 15'000, 200);
}

TEST(FlowControlTest, WindowIsClamped) {
  ReceiveWindowController::Options options;
  options.min_window = 1000;
  options.max_window = 2000;
  ReceiveWindowController ctl(options);
  Nanos now = 0;
  int64_t processed = 0;
  (void)ctl.MaybeAck(now, processed);
  for (int i = 0; i < 5; ++i) {
    now += options.ack_interval;
    processed += 1'000'000;  // huge throughput
    (void)ctl.MaybeAck(now, processed);
  }
  EXPECT_EQ(ctl.window(), 2000);
  for (int i = 0; i < 5; ++i) {
    now += options.ack_interval;
    (void)ctl.MaybeAck(now, processed);  // zero throughput
  }
  EXPECT_EQ(ctl.window(), 1000);
}

// ---------------------------------------------------------------------------
// WireBuffer
// ---------------------------------------------------------------------------

TEST(WireBufferTest, PushDrainPreservesOrder) {
  WireBuffer buffer;
  std::vector<core::Item> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(core::Item::Data<int>(i, i));
  buffer.Push(std::move(batch));
  EXPECT_EQ(buffer.Size(), 5u);

  std::vector<core::Item> out;
  EXPECT_EQ(buffer.DrainInto(&out, 3), 3u);
  EXPECT_EQ(buffer.Size(), 2u);
  EXPECT_EQ(out[0].payload.As<int>(), 0);
  EXPECT_EQ(out[2].payload.As<int>(), 2);
}

TEST(WireBufferTest, ConcurrentPushDrain) {
  WireBuffer buffer;
  constexpr int kBatches = 1000;
  std::thread producer([&buffer]() {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<core::Item> batch;
      for (int i = 0; i < 4; ++i) batch.push_back(core::Item::Data<int>(b * 4 + i, 0));
      buffer.Push(std::move(batch));
    }
  });
  std::vector<core::Item> out;
  int64_t drained = 0;
  while (drained < kBatches * 4) {
    drained += static_cast<int64_t>(buffer.DrainInto(&out, 64));
  }
  producer.join();
  ASSERT_EQ(out.size(), static_cast<size_t>(kBatches * 4));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].payload.As<int>(), static_cast<int>(i));  // per-producer FIFO
  }
}

// ---------------------------------------------------------------------------
// ExchangeRegistry
// ---------------------------------------------------------------------------

TEST(ExchangeRegistryTest, SameKeySameChannel) {
  Network network;
  ExchangeRegistry registry(&network);
  auto a = registry.GetOrCreate(1, 0, 2);
  auto b = registry.GetOrCreate(1, 0, 2);
  auto c = registry.GetOrCreate(1, 2, 0);  // reverse direction differs
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->data_channel, a->ack_channel);
}

}  // namespace
}  // namespace jet::net
