#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/collectors.h"
#include "core/dag.h"
#include "core/inbox_outbox.h"
#include "core/job.h"
#include "core/processors_basic.h"
#include "core/watermark.h"

namespace jet::core {
namespace {

// ---------------------------------------------------------------------------
// Inbox / Outbox
// ---------------------------------------------------------------------------

TEST(InboxTest, FifoPeekPoll) {
  Inbox inbox;
  EXPECT_TRUE(inbox.Empty());
  inbox.Add(Item::Data<int>(1, 10));
  inbox.Add(Item::Data<int>(2, 20));
  EXPECT_EQ(inbox.Size(), 2u);
  EXPECT_EQ(inbox.Peek()->payload.As<int>(), 1);
  Item first = inbox.Poll();
  EXPECT_EQ(first.payload.As<int>(), 1);
  inbox.RemoveFront();
  EXPECT_TRUE(inbox.Empty());
}

// Stands in for an OutboundCollector that takes everything, appending the
// payloads of data items to `got`.
struct RecordingCollector {
  std::vector<int>* got;

  size_t OfferRun(Item* first, Item* last) {
    for (Item* it = first; it != last; ++it) got->push_back(it->payload.As<int>());
    return static_cast<size_t>(last - first);
  }
  bool OfferControl(const Item&) { return true; }
};

// Stands in for an OutboundCollector whose queues are all full.
struct RefusingCollector {
  size_t OfferRun(Item*, Item*) { return 0; }
  bool OfferControl(const Item&) { return false; }
};

// Delivers one pass of bucket `ordinal` to a consumer that accepts all,
// appending the payloads to `got`; returns the number delivered.
size_t DrainPass(Outbox* outbox, int ordinal, std::vector<int>* got) {
  RecordingCollector collector{got};
  return outbox->DrainRuns(ordinal, collector);
}

TEST(OutboxTest, BucketCapacityEnforced) {
  // The capacity is the backpressure threshold: HasRoom() turns false once
  // any one edge bucket holds `bucket_capacity` undelivered items, and
  // turns true again when a drain pass brings it below.
  Outbox outbox(2, /*bucket_capacity=*/3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(outbox.HasRoom());
    outbox.Offer(0, Item::Data<int>(i, 0));
  }
  EXPECT_FALSE(outbox.HasRoom());  // bucket 0 full, bucket 1 empty
  outbox.Offer(0, Item::Data<int>(3, 0));  // still accepted past capacity
  outbox.Offer(1, Item::Data<int>(9, 0));
  EXPECT_EQ(outbox.PendingItems(), 5u);
  std::vector<int> got;
  EXPECT_EQ(DrainPass(&outbox, 0, &got), 3u);  // at most capacity per pass
  EXPECT_TRUE(outbox.HasRoom());
  EXPECT_EQ(outbox.PendingItems(), 2u);
}

TEST(OutboxTest, OfferToAllPastCapacityDeliversInOrderAcrossPasses) {
  Outbox outbox(2, /*bucket_capacity=*/2);
  for (int i = 0; i < 5; ++i) outbox.OfferToAll(Item::Data<int>(i, 0));
  EXPECT_FALSE(outbox.HasRoom());
  std::vector<int> got[2];
  for (size_t expected : {2u, 2u, 1u}) {
    for (int b = 0; b < 2; ++b) EXPECT_EQ(DrainPass(&outbox, b, &got[b]), expected);
  }
  EXPECT_TRUE(outbox.Empty());
  for (int b = 0; b < 2; ++b) EXPECT_EQ(got[b], (std::vector<int>{0, 1, 2, 3, 4}));

  // Offers between passes join the tail, and an item the consumer refuses
  // stays at the front for the next pass.
  std::vector<int> tail;
  for (int i = 5; i < 8; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(DrainPass(&outbox, 0, &tail), 2u);
  outbox.Offer(0, Item::Data<int>(8, 0));
  RefusingCollector full;
  EXPECT_EQ(outbox.DrainRuns(0, full), 0u);
  EXPECT_EQ(DrainPass(&outbox, 0, &tail), 2u);
  EXPECT_EQ(tail, (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(outbox.PendingItems(), 0u);
}

TEST(OutboxTest, OfferToAllMovesIntoLastBucketAndSharesTheRest) {
  // Regression for the deep-copy bug: broadcast used to copy the item into
  // every bucket and leave the source alive, i.e. n+1 payload references
  // for n buckets. The fixed path copies into the first n-1 buckets and
  // *moves* into the last, consuming the source. A std::string is boxed, so
  // the copies share one reference-counted payload.
  Outbox outbox(3, /*bucket_capacity=*/4);
  Item item = Item::Data<std::string>("forty-two", 7);
  const std::string* original = &item.payload.As<std::string>();
  ASSERT_EQ(item.payload.SharedCount(), 1);

  outbox.OfferToAll(std::move(item));
  EXPECT_TRUE(item.payload.Empty());  // source consumed, not copied
  // The three buckets share one payload: refcount is exactly n, and the
  // last bucket holds the original allocation (a move, not a copy).
  EXPECT_EQ(outbox.bucket(0).front().payload.SharedCount(), 3);
  EXPECT_EQ(&outbox.bucket(2).front().payload.As<std::string>(), original);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(outbox.bucket(b).front().payload.As<std::string>(), "forty-two");
  }
}

TEST(OutboxTest, OfferToAllCopiesAnInlinePayloadIntoEveryBucket) {
  // An int is stored inline: every bucket gets its own copy of the bytes
  // and the source is still consumed.
  Outbox outbox(3, /*bucket_capacity=*/4);
  Item item = Item::Data<int>(42, 7, 9);
  ASSERT_TRUE(item.payload.IsInline());

  outbox.OfferToAll(std::move(item));
  EXPECT_TRUE(item.payload.Empty());
  for (int b = 0; b < 3; ++b) {
    const Item& copy = outbox.bucket(b).front();
    EXPECT_TRUE(copy.payload.IsInline());
    EXPECT_EQ(copy.payload.SharedCount(), 1);
    EXPECT_EQ(copy.payload.As<int>(), 42);
    EXPECT_EQ(copy.timestamp, 7);
    EXPECT_EQ(copy.key_hash, 9u);
  }
  EXPECT_NE(&outbox.bucket(0).front().payload.As<int>(),
            &outbox.bucket(1).front().payload.As<int>());
}

TEST(OutboxTest, SnapshotBucketIndependent) {
  // The snapshot bucket has no cap and never withdraws room from the edge
  // buckets; it still drains at most `bucket_capacity` entries per pass.
  Outbox outbox(1, 2);
  for (uint64_t i = 0; i < 5; ++i) outbox.OfferToSnapshot(StateEntry{i, {}, {}});
  EXPECT_TRUE(outbox.HasRoom());
  outbox.Offer(0, Item::Data<int>(1, 0));
  EXPECT_TRUE(outbox.HasRoom());
  std::vector<uint64_t> got;
  std::vector<size_t> passes;
  while (true) {
    size_t n = outbox.DrainSnapshot([&got](StateEntry& entry) {
      got.push_back(entry.key_hash);
      return true;
    });
    if (n == 0) break;
    passes.push_back(n);
  }
  EXPECT_EQ(passes, (std::vector<size_t>{2, 2, 1}));
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(outbox.Empty());  // the data bucket still holds its item
}

// ---------------------------------------------------------------------------
// WatermarkCoalescer
// ---------------------------------------------------------------------------

TEST(WatermarkCoalescerTest, MinAcrossQueues) {
  WatermarkCoalescer c(3);
  EXPECT_EQ(c.Coalesced(), kMinWatermark);
  c.ObserveWatermark(0, 100);
  c.ObserveWatermark(1, 200);
  EXPECT_EQ(c.Coalesced(), kMinWatermark);  // queue 2 silent
  c.ObserveWatermark(2, 50);
  EXPECT_EQ(c.Coalesced(), 50);
  c.ObserveWatermark(2, 150);
  EXPECT_EQ(c.Coalesced(), 100);
}

TEST(WatermarkCoalescerTest, DoneQueuesStopHoldingBack) {
  WatermarkCoalescer c(2);
  c.ObserveWatermark(0, 500);
  EXPECT_EQ(c.Coalesced(), kMinWatermark);
  c.MarkDone(1);
  EXPECT_EQ(c.Coalesced(), 500);
  c.MarkDone(0);
  EXPECT_EQ(c.Coalesced(), kMaxWatermark);
}

TEST(WatermarkCoalescerTest, IgnoresRegression) {
  WatermarkCoalescer c(1);
  c.ObserveWatermark(0, 100);
  c.ObserveWatermark(0, 50);  // regression ignored
  EXPECT_EQ(c.Coalesced(), 100);
}

// ---------------------------------------------------------------------------
// OutboundCollector
// ---------------------------------------------------------------------------

std::vector<ItemQueuePtr> MakeQueues(int n, size_t capacity = 64) {
  std::vector<ItemQueuePtr> queues;
  for (int i = 0; i < n; ++i) queues.push_back(std::make_shared<ItemQueue>(capacity));
  return queues;
}

TEST(CollectorTest, PartitionedIsDeterministicByHash) {
  auto queues = MakeQueues(4);
  OutboundCollector collector(RoutingPolicy::kPartitioned, queues, {}, 4, 1, 0);
  for (uint64_t h = 0; h < 100; ++h) {
    Item item = Item::Data<int>(1, 0, h);
    ASSERT_TRUE(collector.OfferData(item));
  }
  // Each item landed in queue (hash % 4).
  for (int q = 0; q < 4; ++q) {
    size_t expected = 0;
    for (uint64_t h = 0; h < 100; ++h) {
      if (h % 4 == static_cast<uint64_t>(q)) ++expected;
    }
    EXPECT_EQ(queues[static_cast<size_t>(q)]->SizeApprox(), expected);
  }
}

TEST(CollectorTest, PartitionedRoutesRemoteNodes) {
  // 2 nodes x 2 local consumers; this collector is on node 0.
  auto queues = MakeQueues(2);
  std::vector<Item> remote;
  std::vector<RemoteSink> remotes = {[&remote](const Item& item) {
    remote.push_back(item);
    return true;
  }};
  OutboundCollector collector(RoutingPolicy::kPartitioned, queues, remotes,
                              /*total=*/4, /*nodes=*/2, /*node_id=*/0);
  // hash 0,1 -> global 0,1 (node 0); hash 2,3 -> global 2,3 (node 1).
  for (uint64_t h = 0; h < 4; ++h) {
    Item item = Item::Data<int>(1, 0, h);
    ASSERT_TRUE(collector.OfferData(item));
  }
  EXPECT_EQ(queues[0]->SizeApprox() + queues[1]->SizeApprox(), 2u);
  EXPECT_EQ(remote.size(), 2u);
}

TEST(CollectorTest, UnicastSkipsFullQueues) {
  auto queues = MakeQueues(2, /*capacity=*/2);
  OutboundCollector collector(RoutingPolicy::kUnicast, queues, {}, 2, 1, 0);
  for (int i = 0; i < 4; ++i) {
    Item item = Item::Data<int>(i, 0);
    ASSERT_TRUE(collector.OfferData(item));
  }
  // Both queues now full (2 each); further offers fail.
  Item overflow = Item::Data<int>(9, 0);
  EXPECT_FALSE(collector.OfferData(overflow));
  EXPECT_EQ(queues[0]->SizeApprox(), 2u);
  EXPECT_EQ(queues[1]->SizeApprox(), 2u);
}

TEST(CollectorTest, BroadcastDeliversToEveryQueueExactlyOnce) {
  auto queues = MakeQueues(3);
  OutboundCollector collector(RoutingPolicy::kBroadcast, queues, {}, 3, 1, 0);
  Item item = Item::Data<int>(7, 0);
  ASSERT_TRUE(collector.OfferData(item));
  for (auto& q : queues) EXPECT_EQ(q->SizeApprox(), 1u);
}

TEST(CollectorTest, BroadcastResumesAfterFullQueue) {
  auto queues = MakeQueues(2, /*capacity=*/2);
  OutboundCollector collector(RoutingPolicy::kBroadcast, queues, {}, 2, 1, 0);
  // Fill queue 1 (capacity rounds to 2).
  Item filler = Item::Data<int>(0, 0);
  queues[1]->TryPush(filler);
  filler = Item::Data<int>(0, 0);
  queues[1]->TryPush(filler);

  Item item = Item::Data<int>(7, 0);
  EXPECT_FALSE(collector.OfferData(item));  // queue 0 got it, queue 1 full
  EXPECT_EQ(queues[0]->SizeApprox(), 1u);

  // Drain queue 1 and retry the SAME item: queue 0 must not get a dup.
  Item out;
  queues[1]->TryPop(out);
  queues[1]->TryPop(out);
  EXPECT_TRUE(collector.OfferData(item));
  EXPECT_EQ(queues[0]->SizeApprox(), 1u);
  EXPECT_EQ(queues[1]->SizeApprox(), 1u);
}

TEST(CollectorTest, ControlReachesEveryQueue) {
  auto queues = MakeQueues(3);
  OutboundCollector collector(RoutingPolicy::kPartitioned, queues, {}, 3, 1, 0);
  ASSERT_TRUE(collector.OfferControl(Item::WatermarkAt(42)));
  for (auto& q : queues) {
    Item* front = q->Peek();
    ASSERT_NE(front, nullptr);
    EXPECT_TRUE(front->IsWatermark());
    EXPECT_EQ(front->timestamp, 42);
  }
}

// ---------------------------------------------------------------------------
// Run delivery: Outbox::DrainRuns through an OutboundCollector
// ---------------------------------------------------------------------------

// Pops everything in `queue`, data payloads as themselves and watermarks as
// -1 - timestamp.
std::vector<int> PopAll(ItemQueue* queue) {
  std::vector<int> out;
  Item item;
  while (queue->TryPop(item)) {
    out.push_back(item.IsData() ? item.payload.As<int>()
                                : -1 - static_cast<int>(item.timestamp));
  }
  return out;
}

std::vector<int> Range(int from, int to) {
  std::vector<int> out;
  for (int i = from; i < to; ++i) out.push_back(i);
  return out;
}

TEST(RunDeliveryTest, RunIntoAQueueWithKFreeSlotsDeliversTheFirstK) {
  for (RoutingPolicy routing : {RoutingPolicy::kIsolated, RoutingPolicy::kUnicast}) {
    SCOPED_TRACE(static_cast<int>(routing));
    auto queues = MakeQueues(1, /*capacity=*/8);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(queues[0]->TryPush(Item::Data<int>(100 + i, 0)));
    OutboundCollector collector(routing, queues, {}, 1, 1, 0, /*isolated_index=*/0);
    Outbox outbox(1, /*bucket_capacity=*/64);
    for (int i = 0; i < 6; ++i) outbox.Offer(0, Item::Data<int>(i, 0));

    EXPECT_EQ(outbox.DrainRuns(0, collector), 3u);  // k = 3 free slots
    EXPECT_EQ(outbox.PendingItems(), 3u);
    EXPECT_EQ(PopAll(queues[0].get()), (std::vector<int>{100, 101, 102, 103, 104, 0, 1, 2}));
    // The rest stayed in the bucket, in order.
    EXPECT_EQ(outbox.DrainRuns(0, collector), 3u);
    EXPECT_TRUE(outbox.Empty());
    EXPECT_EQ(PopAll(queues[0].get()), (std::vector<int>{3, 4, 5}));
  }
}

TEST(RunDeliveryTest, UnicastRunSkipsAFullQueueAndRotatesPerRun) {
  auto queues = MakeQueues(3, /*capacity=*/4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queues[0]->TryPush(Item::Data<int>(100 + i, 0)));
  OutboundCollector collector(RoutingPolicy::kUnicast, queues, {}, 3, 1, 0);
  Outbox outbox(1, /*bucket_capacity=*/64);

  for (int i = 0; i < 3; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.DrainRuns(0, collector), 3u);  // queue 0 is full: all to queue 1
  for (int i = 3; i < 5; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.DrainRuns(0, collector), 2u);  // the next run goes to queue 2
  // A run larger than the room left spills from queue 0 (still full) past
  // queue 1 (one slot) into queue 2 (two slots) and keeps the rest.
  for (int i = 5; i < 9; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.DrainRuns(0, collector), 3u);
  EXPECT_EQ(outbox.PendingItems(), 1u);

  EXPECT_EQ(PopAll(queues[0].get()), Range(100, 104));
  EXPECT_EQ(PopAll(queues[1].get()), (std::vector<int>{0, 1, 2, 5}));
  EXPECT_EQ(PopAll(queues[2].get()), (std::vector<int>{3, 4, 6, 7}));
}

TEST(RunDeliveryTest, WatermarkWaitsForTheRestOfAPartlyDeliveredRun) {
  for (RoutingPolicy routing : {RoutingPolicy::kIsolated, RoutingPolicy::kUnicast}) {
    SCOPED_TRACE(static_cast<int>(routing));
    auto queues = MakeQueues(1, /*capacity=*/4);
    OutboundCollector collector(routing, queues, {}, 1, 1, 0, /*isolated_index=*/0);
    Outbox outbox(1, /*bucket_capacity=*/64);
    for (int i = 0; i < 6; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
    outbox.Offer(0, Item::WatermarkAt(7));
    outbox.Offer(0, Item::Data<int>(6, 0));

    EXPECT_EQ(outbox.DrainRuns(0, collector), 4u);
    EXPECT_EQ(outbox.DrainRuns(0, collector), 0u);  // still full: nothing overtakes
    EXPECT_EQ(PopAll(queues[0].get()), Range(0, 4));
    EXPECT_EQ(outbox.DrainRuns(0, collector), 4u);
    EXPECT_TRUE(outbox.Empty());
    EXPECT_EQ(PopAll(queues[0].get()), (std::vector<int>{4, 5, -8, 6}));
  }
}

TEST(RunDeliveryTest, PartitionedAndBroadcastDeliverAsItemByItemOffers) {
  // Reference: the per-item OfferData loop, stopping at the first refusal,
  // on an identical collector. Small queues force partial passes.
  for (RoutingPolicy routing : {RoutingPolicy::kPartitioned, RoutingPolicy::kBroadcast}) {
    SCOPED_TRACE(static_cast<int>(routing));
    auto queues = MakeQueues(3, /*capacity=*/4);
    auto ref_queues = MakeQueues(3, /*capacity=*/4);
    OutboundCollector collector(routing, queues, {}, 3, 1, 0);
    OutboundCollector reference(routing, ref_queues, {}, 3, 1, 0);
    std::vector<Item> items;
    for (int i = 0; i < 20; ++i) {
      if (i == 9) items.push_back(Item::WatermarkAt(50));
      items.push_back(Item::Data<int>(i, i, HashU64(static_cast<uint64_t>(i))));
    }
    Outbox outbox(1, /*bucket_capacity=*/64);
    for (const Item& item : items) outbox.Offer(0, item);

    size_t next = 0;
    for (int pass = 0; pass < 100 && next < items.size(); ++pass) {
      const size_t before = next;
      while (next < items.size() && (items[next].IsData()
                                         ? reference.OfferData(items[next])
                                         : reference.OfferControl(items[next]))) {
        ++next;
      }
      EXPECT_EQ(outbox.DrainRuns(0, collector), next - before) << "pass " << pass;
      for (size_t q = 0; q < 3; ++q) {
        EXPECT_EQ(PopAll(queues[q].get()), PopAll(ref_queues[q].get()))
            << "pass " << pass << ", queue " << q;
      }
    }
    EXPECT_EQ(next, items.size());
    EXPECT_TRUE(outbox.Empty());
  }
}

// ---------------------------------------------------------------------------
// In-place outbox: data items built straight in the downstream ring
// ---------------------------------------------------------------------------

// One delivery pass as ProcessorTasklet::DrainOutbox makes it: the windows
// are published first, then the buckets drain.
void Deliver(Outbox* outbox, std::vector<OutboundCollector>* collectors) {
  outbox->PublishWindows();
  for (int o = 0; o < outbox->edge_count(); ++o) {
    outbox->DrainRuns(o, (*collectors)[static_cast<size_t>(o)]);
  }
}

TEST(InPlaceOutboxTest, DataWatermarkDataArriveInOfferOrder) {
  for (RoutingPolicy routing : {RoutingPolicy::kIsolated, RoutingPolicy::kUnicast}) {
    SCOPED_TRACE(static_cast<int>(routing));
    auto queues = MakeQueues(1, /*capacity=*/16);
    std::vector<OutboundCollector> collectors;
    collectors.emplace_back(routing, queues, std::vector<RemoteSink>{}, 1, 1, 0, 0);
    Outbox outbox(1, /*bucket_capacity=*/8);
    outbox.AttachCollectors(collectors);
    outbox.Offer(0, Item::Data<int>(0, 0));
    outbox.Offer(0, Item::Data<int>(1, 0));
    outbox.OfferToAll(Item::WatermarkAt(5));
    outbox.Offer(0, Item::Data<int>(2, 0));
    // The two items ahead of the watermark were built in place; the
    // watermark and the item behind it wait in the bucket.
    EXPECT_EQ(outbox.bucket(0).size(), 2u);
    EXPECT_TRUE(queues[0]->EmptyApprox());  // nothing published yet

    Deliver(&outbox, &collectors);
    EXPECT_TRUE(outbox.Empty());
    EXPECT_EQ(PopAll(queues[0].get()), (std::vector<int>{0, 1, -6, 2}));
  }
}

TEST(InPlaceOutboxTest, ItemsSpilledWhenTheRingFillsArriveAfterTheInPlaceOnes) {
  auto queues = MakeQueues(1, /*capacity=*/8);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queues[0]->TryPush(Item::Data<int>(100 + i, 0)));
  std::vector<OutboundCollector> collectors;
  collectors.emplace_back(RoutingPolicy::kIsolated, queues, std::vector<RemoteSink>{}, 1, 1,
                          0, 0);
  Outbox outbox(1, /*bucket_capacity=*/64);
  outbox.AttachCollectors(collectors);
  // 4 free slots: the ring fills after 4 offers, the next 2 spill.
  for (int i = 0; i < 6; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.bucket(0).size(), 2u);
  EXPECT_TRUE(outbox.HasRoom());
  // The consumer frees the 4 old slots mid-step: what is offered next
  // still queues up behind the spilled items.
  Item item;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queues[0]->TryPop(item));
    EXPECT_EQ(item.payload.As<int>(), 100 + i);
  }
  for (int i = 6; i < 8; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.bucket(0).size(), 4u);

  Deliver(&outbox, &collectors);
  EXPECT_TRUE(outbox.Empty());
  EXPECT_EQ(PopAll(queues[0].get()), Range(0, 8));
}

TEST(InPlaceOutboxTest, UnicastOverTwoQueuesAlternatesPerPublishedWindow) {
  auto queues = MakeQueues(2, /*capacity=*/16);
  std::vector<OutboundCollector> collectors;
  collectors.emplace_back(RoutingPolicy::kUnicast, queues, std::vector<RemoteSink>{}, 2, 1, 0);
  Outbox outbox(1, /*bucket_capacity=*/4);
  outbox.AttachCollectors(collectors);
  for (int i = 0; i < 3; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  Deliver(&outbox, &collectors);
  for (int i = 3; i < 5; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  Deliver(&outbox, &collectors);
  // A full window (bucket_capacity = 4) is published and the next one is
  // claimed in the other queue.
  for (int i = 5; i < 10; ++i) outbox.Offer(0, Item::Data<int>(i, 0));
  EXPECT_EQ(outbox.bucket(0).size(), 0u);
  Deliver(&outbox, &collectors);

  EXPECT_EQ(PopAll(queues[0].get()), (std::vector<int>{0, 1, 2, 5, 6, 7, 8}));
  EXPECT_EQ(PopAll(queues[1].get()), (std::vector<int>{3, 4, 9}));
}

TEST(InPlaceOutboxTest, PartitionedBroadcastAndRemoteRoutesNeverClaimSlots) {
  std::vector<Item> remote;
  const RemoteSink sink = [&remote](const Item& item) {
    remote.push_back(item);
    return true;
  };
  struct Route {
    RoutingPolicy routing;
    std::vector<RemoteSink> remotes;
  };
  for (const Route& route : {Route{RoutingPolicy::kPartitioned, {}},
                             Route{RoutingPolicy::kBroadcast, {}},
                             Route{RoutingPolicy::kUnicast, {sink}},
                             Route{RoutingPolicy::kPartitioned, {sink}}}) {
    SCOPED_TRACE(static_cast<int>(route.routing));
    remote.clear();
    auto queues = MakeQueues(2, /*capacity=*/16);
    const int32_t nodes = route.remotes.empty() ? 1 : 2;
    std::vector<OutboundCollector> collectors;
    collectors.emplace_back(route.routing, queues, route.remotes, 2 * nodes, nodes, 0);
    EXPECT_FALSE(collectors[0].EmitsInPlace());
    EXPECT_TRUE(collectors[0].ClaimWindow(8).empty());
    Outbox outbox(1, /*bucket_capacity=*/8);
    outbox.AttachCollectors(collectors);
    for (int i = 0; i < 6; ++i) {
      outbox.Offer(0, Item::Data<int>(i, 0, HashU64(static_cast<uint64_t>(i))));
    }
    EXPECT_EQ(outbox.bucket(0).size(), 6u);
    EXPECT_EQ(outbox.PublishWindows(), 0u);
    EXPECT_TRUE(queues[0]->EmptyApprox());
    EXPECT_TRUE(queues[1]->EmptyApprox());
    Deliver(&outbox, &collectors);
    EXPECT_TRUE(outbox.Empty());
    const size_t copies = route.routing == RoutingPolicy::kBroadcast ? 2 : 1;
    EXPECT_EQ(queues[0]->SizeApprox() + queues[1]->SizeApprox() + remote.size(), 6 * copies);
  }
}

#if JETSIM_DEBUG_CHECKS

TEST(InPlaceOutboxDeathTest, HandoffWithAnOpenWindowAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        auto queues = MakeQueues(1, /*capacity=*/8);
        std::vector<OutboundCollector> collectors;
        collectors.emplace_back(RoutingPolicy::kIsolated, queues, std::vector<RemoteSink>{},
                                1, 1, 0, 0);
        Outbox outbox(1);
        outbox.AttachCollectors(collectors);
        outbox.Offer(0, Item::Data<int>(1, 0));
        outbox.ReleaseOwner();  // the window was never published
      },
      "window open at a worker handoff");
}

#endif  // JETSIM_DEBUG_CHECKS

// ---------------------------------------------------------------------------
// Property sweep: every routing policy delivers every item exactly once
// end-to-end across parallelism combinations.
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its parameter, so the three
// bytes after the one-byte RoutingPolicy are an explicit, zeroed member:
// left as padding they would hold stack garbage and rename the case on
// every test discovery.
struct RoutingCase {
  RoutingCase(RoutingPolicy r, int32_t producers, int32_t consumers)
      : routing(r),
        producer_parallelism(producers),
        consumer_parallelism(consumers) {}

  RoutingPolicy routing;
  uint8_t zero_padding[3] = {};
  int32_t producer_parallelism;
  int32_t consumer_parallelism;
};

class RoutingSweep : public ::testing::TestWithParam<RoutingCase> {};

TEST_P(RoutingSweep, DeliversEverythingExactlyOnce) {
  const RoutingCase& c = GetParam();
  constexpr int64_t kCount = 4'000;
  static ManualClock clock(int64_t{1} << 60);

  Dag dag;
  VertexId source = dag.AddVertex(
      "source",
      [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;
        opt.duration = kCount;
        opt.watermark_interval = 500;
        opt.start_time = 0;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) {
              return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq)));
            },
            opt);
      },
      c.producer_parallelism);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      c.consumer_parallelism);
  dag.AddEdge(source, sink).routing = c.routing;

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  std::map<int64_t, int> occurrences;
  for (int64_t v : values) ++occurrences[v];

  int64_t expected_copies =
      c.routing == RoutingPolicy::kBroadcast ? c.consumer_parallelism : 1;
  ASSERT_EQ(values.size(), static_cast<size_t>(kCount * expected_copies));
  for (int64_t v = 0; v < kCount; ++v) {
    ASSERT_EQ(occurrences[v], expected_copies) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RoutingSweep,
    ::testing::Values(RoutingCase{RoutingPolicy::kUnicast, 1, 1},
                      RoutingCase{RoutingPolicy::kUnicast, 2, 3},
                      RoutingCase{RoutingPolicy::kUnicast, 3, 1},
                      RoutingCase{RoutingPolicy::kPartitioned, 1, 4},
                      RoutingCase{RoutingPolicy::kPartitioned, 3, 2},
                      RoutingCase{RoutingPolicy::kBroadcast, 1, 3},
                      RoutingCase{RoutingPolicy::kBroadcast, 2, 2},
                      RoutingCase{RoutingPolicy::kIsolated, 2, 2},
                      RoutingCase{RoutingPolicy::kIsolated, 4, 4}));

// Partitioned routing sends a key to the same consumer instance always.
TEST(RoutingConsistencyTest, PartitionedKeysStayWithOneInstance) {
  constexpr int64_t kCount = 6'000;
  constexpr int64_t kKeys = 16;
  static ManualClock clock(int64_t{1} << 60);

  // Sink records which instance saw which key.
  struct InstanceTag {
    uint64_t key;
    int32_t instance;
  };
  auto tags = std::make_shared<SyncCollector<InstanceTag>>();

  class TaggingSink final : public Processor {
   public:
    explicit TaggingSink(std::shared_ptr<SyncCollector<InstanceTag>> tags)
        : tags_(std::move(tags)) {}
    void Process(int, Inbox* inbox) override {
      while (!inbox->Empty()) {
        tags_->Add(InstanceTag{inbox->Peek()->key_hash, ctx()->meta.global_index});
        inbox->RemoveFront();
      }
    }

   private:
    std::shared_ptr<SyncCollector<InstanceTag>> tags_;
  };

  Dag dag;
  VertexId source = dag.AddVertex(
      "source",
      [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;
        opt.duration = kCount;
        opt.watermark_interval = 500;
        opt.start_time = 0;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) {
              return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq % kKeys)));
            },
            opt);
      },
      2);
  VertexId sink = dag.AddVertex(
      "sink",
      [tags](const ProcessorMeta&) { return std::make_unique<TaggingSink>(tags); }, 3);
  dag.AddEdge(source, sink).routing = RoutingPolicy::kPartitioned;

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  std::map<uint64_t, std::set<int32_t>> instances_per_key;
  for (const auto& tag : tags->Snapshot()) {
    instances_per_key[tag.key].insert(tag.instance);
  }
  EXPECT_EQ(instances_per_key.size(), static_cast<size_t>(kKeys));
  for (const auto& [key, instances] : instances_per_key) {
    EXPECT_EQ(instances.size(), 1u) << "key hash " << key << " visited several instances";
  }
}

}  // namespace
}  // namespace jet::core
