// Wraparound, size, and misuse-detection coverage for SpscQueue (ISSUE 1).
//
// The wraparound tests use SpscQueue::SeedIndexesForTest to start the
// monotonically increasing head/tail indices near SIZE_MAX, so the
// `index & mask_` addressing and the `head - tail` unsigned arithmetic are
// exercised across the 2^64 boundary without 2^64 pushes.

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/debug_check.h"
#include "common/spsc_queue.h"

namespace jet {
namespace {

TEST(SpscQueueWrapTest, PushBatchAcrossIndexBoundary) {
  SpscQueue<int> q(8);
  // 3 slots before the index wraps to 0 mid-batch.
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - 2);
  std::vector<int> in = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(q.PushBatch(in.begin(), in.end()), 6u);
  EXPECT_EQ(q.SizeApprox(), 6u);
  std::vector<int> out;
  EXPECT_EQ(q.DrainTo([&out](int&& v) { out.push_back(v); }, 100), 6u);
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(q.SizeApprox(), 0u);
}

TEST(SpscQueueWrapTest, DrainToAcrossIndexBoundary) {
  SpscQueue<int> q(4);
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - 1);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(q.TryPush(v));
  }
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(overflow));  // full across the boundary
  std::vector<int> out;
  EXPECT_EQ(q.DrainTo([&out](int&& v) { out.push_back(v); }, 2), 2u);
  EXPECT_EQ(q.DrainTo([&out](int&& v) { out.push_back(v); }, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SpscQueueWrapTest, TryPopAndPeekAcrossIndexBoundary) {
  SpscQueue<std::string> q(2);
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max());
  std::string a = "a", b = "b";
  EXPECT_TRUE(q.TryPush(a));  // lands at index SIZE_MAX
  EXPECT_TRUE(q.TryPush(b));  // lands at index 0 after wrap
  ASSERT_NE(q.Peek(), nullptr);
  EXPECT_EQ(*q.Peek(), "a");
  q.PopFront();
  std::string out;
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, "b");
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueWrapTest, TwoThreadStressAcrossIndexBoundary) {
  constexpr int64_t kItems = 200'000;
  SpscQueue<int64_t> q(64);
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - kItems / 2);
  std::thread producer([&q]() {
    for (int64_t i = 0; i < kItems;) {
      int64_t v = i;
      if (q.TryPush(v)) ++i;
    }
  });
  int64_t expected = 0;
  while (expected < kItems) {
    int64_t out;
    if (q.TryPop(out)) {
      ASSERT_EQ(out, expected);  // strict FIFO across the wrap
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscQueueTest, RvalueTryPushRestoresItemOnFailure) {
  SpscQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(1)));
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(2)));
  auto third = std::make_unique<int>(3);
  EXPECT_FALSE(q.TryPush(std::move(third)));
  // Failed rvalue push must leave the caller's object intact for retry.
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(*third, 3);
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_TRUE(q.TryPush(std::move(third)));
  EXPECT_EQ(third, nullptr);  // success consumes the item
}

TEST(SpscQueueTest, SizeApproxNeverExceedsCapacityUnderConcurrency) {
  // The old implementation loaded head before tail, so a consumer advancing
  // tail between the loads made `head - tail` wrap to a huge size_t. Load
  // order plus clamping bounds it by capacity() always.
  constexpr int64_t kItems = 300'000;
  SpscQueue<int64_t> q(16);
  std::thread producer([&q]() {
    for (int64_t i = 0; i < kItems;) {
      int64_t v = i;
      if (q.TryPush(v)) ++i;
    }
  });
  std::thread observer([&q]() {
    for (int i = 0; i < 200'000; ++i) {
      size_t size = q.SizeApprox();
      ASSERT_LE(size, q.capacity());
    }
  });
  int64_t popped = 0;
  while (popped < kItems) {
    int64_t out;
    if (q.TryPop(out)) ++popped;
  }
  producer.join();
  observer.join();
}

// In-place consumption: FrontRun hands out the front run in its slots and
// Release frees a prefix of it with one tail publish.
TEST(SpscQueueTest, FrontRunStopsAtARejectedItemAndAtTheLimit) {
  SpscQueue<int> q(8);
  for (int v : {1, 2, 3, -1, 4}) EXPECT_TRUE(q.TryPush(v));
  auto non_negative = [](const int& v) { return v >= 0; };

  std::span<int> run = q.FrontRun(non_negative, 10);
  ASSERT_EQ(run.size(), 3u);  // stops before the rejected -1
  EXPECT_EQ(run.data(), q.Peek());  // in place: the front slot itself
  EXPECT_EQ(std::vector<int>(run.begin(), run.end()), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.FrontRun(non_negative, 2).size(), 2u);  // stops at the limit
  EXPECT_EQ(q.SizeApprox(), 5u);  // nothing was removed

  q.Release(3);
  EXPECT_TRUE(q.FrontRun(non_negative, 10).empty());  // -1 is at the front
  ASSERT_NE(q.Peek(), nullptr);
  EXPECT_EQ(*q.Peek(), -1);
  q.PopFront();
  run = q.FrontRun(non_negative, 10);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0], 4);
  q.Release(1);
  EXPECT_TRUE(q.FrontRun(non_negative, 10).empty());
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueWrapTest, FrontRunStopsAtTheEndOfTheSlotArray) {
  SpscQueue<int> q(8);
  // Index SIZE_MAX - 2 is slot 5: three slots before the array wraps to
  // slot 0, at the same point where the index wraps past SIZE_MAX.
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - 2);
  std::vector<int> in = {0, 1, 2, 3, 4, 5};
  ASSERT_EQ(q.PushBatch(in.begin(), in.end()), 6u);
  auto all = [](const int&) { return true; };

  std::span<int> first = q.FrontRun(all, 10);
  EXPECT_EQ(std::vector<int>(first.begin(), first.end()), (std::vector<int>{0, 1, 2}));
  // Until released, a second call returns the same run.
  EXPECT_EQ(q.FrontRun(all, 10).data(), first.data());
  q.Release(first.size());
  std::span<int> rest = q.FrontRun(all, 10);
  EXPECT_EQ(std::vector<int>(rest.begin(), rest.end()), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(rest.data() + 5, first.data());  // slot 0 vs slot 5
  q.Release(rest.size());
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueTest, ProducerSeesExactlyTheReleasedSlotsFree) {
  SpscQueue<int> q(4);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(q.TryPush(v));
  std::span<int> run = q.FrontRun([](const int&) { return true; }, 4);
  ASSERT_EQ(run.size(), 4u);
  int sum = 0;
  for (int v : run) sum += v;  // consumed in place
  EXPECT_EQ(sum, 6);
  // Consumed but not released: every slot is still taken.
  int extra = 9;
  EXPECT_FALSE(q.TryPush(extra));
  std::vector<int> more = {10, 11, 12, 13, 14};
  EXPECT_EQ(q.PushBatch(more.begin(), more.end()), 0u);

  q.Release(3);
  EXPECT_EQ(q.SizeApprox(), 1u);
  EXPECT_EQ(q.PushBatch(more.begin(), more.end()), 3u);  // exactly the 3 freed
  EXPECT_FALSE(q.TryPush(extra));
  std::vector<int> out;
  for (int v; q.TryPop(v);) out.push_back(v);
  EXPECT_EQ(out, (std::vector<int>{3, 10, 11, 12}));
}

// Element type that tracks every live instance, so a test can prove the
// queue constructs each slot exactly once per push and destroys it exactly
// once per pop (or at queue destruction). No default constructor: the queue
// must never build a slot it was not given.
class Counted {
 public:
  explicit Counted(int value) : value_(value) { Born(); }
  Counted(const Counted& other) : value_(other.value_) { Born(); }
  Counted(Counted&& other) noexcept : value_(other.value_) { Born(); }
  Counted& operator=(const Counted& other) = default;
  Counted& operator=(Counted&& other) noexcept = default;
  ~Counted() {
    EXPECT_EQ(live().erase(this), 1u) << "destroyed twice or never constructed";
    ++destructions();
  }

  int value() const { return value_; }

  static int64_t& constructions() {
    static int64_t n = 0;
    return n;
  }
  static int64_t& destructions() {
    static int64_t n = 0;
    return n;
  }
  static std::set<const Counted*>& live() {
    static std::set<const Counted*> s;
    return s;
  }

 private:
  void Born() {
    EXPECT_TRUE(live().insert(this).second) << "constructed over a live object";
    ++constructions();
  }

  int value_;
};

TEST(SpscQueueTest, SlotsAreBuiltOnPushAndDestroyedOnPopAcrossWraparound) {
  {
    SpscQueue<Counted> q(4);
    EXPECT_EQ(Counted::constructions(), 0);  // no slot exists before a push
    q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - 1);
    std::vector<int> got;

    Counted a(1);
    EXPECT_TRUE(q.TryPush(a));
    EXPECT_TRUE(q.TryPush(Counted(2)));
    std::vector<Counted> batch;
    for (int v = 3; v <= 5; ++v) batch.emplace_back(v);
    EXPECT_EQ(q.PushBatch(batch.begin(), batch.end()), 2u);  // full at 4
    EXPECT_FALSE(q.TryPush(Counted(99)));

    Counted out(0);
    ASSERT_TRUE(q.TryPop(out));
    got.push_back(out.value());
    EXPECT_EQ(q.DrainTo([&got](Counted&& c) { got.push_back(c.value()); }, 1), 1u);
    ASSERT_NE(q.Peek(), nullptr);
    got.push_back(q.Peek()->value());
    q.PopFront();
    EXPECT_EQ(q.DrainTo([&got](Counted&& c) { got.push_back(c.value()); }, 10), 1u);
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));

    // The indices have wrapped past SIZE_MAX; refill and drain again.
    for (int v = 6; v <= 8; ++v) EXPECT_TRUE(q.TryPush(Counted(v)));
    std::span<Counted> run = q.FrontRun([](const Counted& c) { return c.value() < 7; }, 10);
    EXPECT_EQ(run.size(), 1u);
    for (const Counted& c : run) got.push_back(c.value());
    q.Release(run.size());
    EXPECT_EQ(q.PushBatch(batch.begin() + 2, batch.end()), 1u);
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4, 6}));
    EXPECT_EQ(q.SizeApprox(), 3u);
    // The queue goes out of scope still holding 7, 8 and 5.
  }
  EXPECT_GT(Counted::constructions(), 0);
  EXPECT_EQ(Counted::constructions(), Counted::destructions());
  EXPECT_TRUE(Counted::live().empty());
}

// In-place production: FreeRun hands out the free slots at head, and
// Publish makes the items built in them visible with one head publish.
TEST(SpscQueueWrapTest, FreeRunStopsAtTheEndOfTheSlotArray) {
  SpscQueue<std::string> q(8);
  // Index SIZE_MAX - 2 is slot 5: three slots before the array wraps to
  // slot 0, at the same point where the index wraps past SIZE_MAX.
  q.SeedIndexesForTest(std::numeric_limits<size_t>::max() - 2);
  std::span<std::string> first = q.FreeRun(10);
  ASSERT_EQ(first.size(), 3u);
  for (size_t i = 0; i < 3; ++i) std::construct_at(&first[i], std::to_string(i));
  q.Publish(3);
  EXPECT_EQ(q.SizeApprox(), 3u);  // head wrapped past SIZE_MAX to 0

  std::span<std::string> rest = q.FreeRun(10);
  ASSERT_EQ(rest.size(), 5u);  // slots 0-4
  EXPECT_EQ(rest.data() + 5, first.data());
  for (size_t i = 0; i < 5; ++i) std::construct_at(&rest[i], std::to_string(3 + i));
  q.Publish(5);
  EXPECT_EQ(q.SizeApprox(), 8u);

  std::vector<std::string> out;
  EXPECT_EQ(q.DrainTo([&out](std::string&& v) { out.push_back(v); }, 100), 8u);
  EXPECT_EQ(out, (std::vector<std::string>{"0", "1", "2", "3", "4", "5", "6", "7"}));
}

TEST(SpscQueueTest, FreeRunOnAFullRingGivesNoSlots) {
  SpscQueue<int> q(4);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(q.TryPush(v));
  EXPECT_TRUE(q.FreeRun(4).empty());
  EXPECT_TRUE(q.FreeRun(1).empty());
  int out = 0;
  ASSERT_TRUE(q.TryPop(out));
  std::span<int> one = q.FreeRun(4);
  ASSERT_EQ(one.size(), 1u);
  std::construct_at(&one[0], 9);
  q.Publish(1);
  EXPECT_TRUE(q.FreeRun(4).empty());
}

TEST(SpscQueueTest, FreeRunRefreshesAStaleCachedTail) {
  SpscQueue<int> q(8);
  std::span<int> all = q.FreeRun(8);
  ASSERT_EQ(all.size(), 8u);
  for (int i = 0; i < 8; ++i) std::construct_at(&all[static_cast<size_t>(i)], i);
  q.Publish(8);
  std::vector<int> out;
  auto drain = [&out](int&& v) { out.push_back(v); };
  // The consumer frees 3 slots; the producer's cached tail still says full.
  EXPECT_EQ(q.DrainTo(drain, 3), 3u);
  EXPECT_EQ(q.FreeRun(8).size(), 3u);
  // 3 more freed: a request the cached view can serve does not need them,
  // a longer one re-reads tail and sees all 6.
  EXPECT_EQ(q.DrainTo(drain, 3), 3u);
  EXPECT_EQ(q.FreeRun(2).size(), 2u);
  EXPECT_EQ(q.FreeRun(8).size(), 6u);
}

TEST(SpscQueueTest, ItemsBuiltButNotPublishedAreInvisible) {
  SpscQueue<std::string> q(4);
  auto all = [](const std::string&) { return true; };
  std::span<std::string> window = q.FreeRun(4);
  ASSERT_EQ(window.size(), 4u);
  std::construct_at(&window[0], "a");
  std::construct_at(&window[1], "b");
  EXPECT_EQ(q.Peek(), nullptr);
  EXPECT_TRUE(q.FrontRun(all, 4).empty());
  EXPECT_EQ(q.SizeApprox(), 0u);

  q.Publish(2);
  ASSERT_NE(q.Peek(), nullptr);
  EXPECT_EQ(*q.Peek(), "a");
  std::span<std::string> run = q.FrontRun(all, 4);
  EXPECT_EQ(std::vector<std::string>(run.begin(), run.end()),
            (std::vector<std::string>{"a", "b"}));
  q.Release(run.size());
  EXPECT_TRUE(q.EmptyApprox());
}

#if JETSIM_DEBUG_CHECKS

using SpscQueueDeathTest = ::testing::Test;

TEST(SpscQueueDeathTest, FreeRunFromASecondProducerThreadAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        SpscQueue<int> q(4);
        (void)q.FreeRun(1);  // binds the producer role to this thread
        std::thread second([&q]() { (void)q.FreeRun(1); });
        second.join();
      },
      "ownership.*SpscQueue producer \\(FreeRun\\)");
}

TEST(SpscQueueDeathTest, PopFrontWithoutPeekAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        SpscQueue<int> q(4);
        int v = 1;
        q.TryPush(v);
        // Misuse: PopFront without a preceding successful Peek — the
        // consumer's cached head was never refreshed.
        q.PopFront();
      },
      "PopFront without preceding Peek");
}

TEST(SpscQueueDeathTest, PopFrontOnEmptyQueueAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        SpscQueue<int> q(4);
        int v = 1;
        q.TryPush(v);
        (void)q.Peek();
        q.PopFront();
        q.PopFront();  // queue is empty now
      },
      "PopFront");
}

#else

TEST(SpscQueueDeathTest, PopFrontMisuseRequiresDebugChecks) {
  GTEST_SKIP() << "JETSIM_DEBUG_CHECKS is off; misuse aborts are compiled out "
                  "(run the asan-ubsan preset)";
}

#endif  // JETSIM_DEBUG_CHECKS

}  // namespace
}  // namespace jet
