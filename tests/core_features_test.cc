#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/job.h"
#include "core/processors_basic.h"
#include "core/processors_window.h"
#include "core/tasklet.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "pipeline/pipeline.h"

namespace jet::core {
namespace {

// ---------------------------------------------------------------------------
// Out-of-order streams (§1/§8: out-of-order processing)
// ---------------------------------------------------------------------------

// With bounded disorder and a watermark lagging by the disorder bound, the
// windowed counts are exact: nothing is dropped, nothing double-counted.
TEST(OutOfOrderTest, BoundedDisorderCountsAreExact) {
  constexpr int64_t kCount = 20'000;
  static ManualClock clock(int64_t{1} << 60);

  auto late = std::make_shared<std::atomic<int64_t>>(0);
  Dag dag;
  auto op = CountingAggregate<int64_t>();
  WindowDef window = WindowDef::Tumbling(kNanosPerMilli);
  VertexId source = dag.AddVertex(
      "source",
      [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e6;  // 1 event per us of event time
        opt.duration = kCount * 1000;
        opt.watermark_interval = 50 * 1000;
        opt.start_time = 0;
        opt.max_disorder = 300 * 1000;  // 300us of shuffle
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) {
              return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq % 8)));
            },
            opt);
      },
      1);
  VertexId accumulate = dag.AddVertex(
      "accumulate",
      [op, window, late](const ProcessorMeta&) {
        return std::make_unique<AccumulateByFrameP<int64_t, int64_t, int64_t>>(
            op, [](const int64_t& v) { return static_cast<uint64_t>(v % 8); }, window,
            late);
      },
      2);
  VertexId combine = dag.AddVertex(
      "combine",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<CombineFramesP<int64_t, int64_t, int64_t>>(op, window);
      },
      2);
  auto collector = std::make_shared<SyncCollector<WindowResult<int64_t>>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<WindowResult<int64_t>>>(collector);
      },
      1);
  dag.AddEdge(source, accumulate);
  dag.AddEdge(accumulate, combine).routing = RoutingPolicy::kPartitioned;
  dag.AddEdge(combine, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  int64_t total = 0;
  for (const auto& r : collector->Snapshot()) total += r.value;
  EXPECT_EQ(total, kCount);
  EXPECT_EQ(late->load(), 0) << "watermark must lag by the disorder bound";
}

// Events arriving after their frame was flushed are counted and dropped
// instead of resurrecting already-emitted windows.
TEST(OutOfOrderTest, LateEventsBeyondWatermarkAreDroppedAndCounted) {
  Outbox outbox(1, 1024);
  ProcessorContext ctx;
  ctx.outbox = &outbox;
  static ManualClock clock(0);
  ctx.clock = &clock;

  auto late = std::make_shared<std::atomic<int64_t>>(0);
  auto op = CountingAggregate<int64_t>();
  AccumulateByFrameP<int64_t, int64_t, int64_t> processor(
      op, [](const int64_t& v) { return static_cast<uint64_t>(v); },
      WindowDef::Tumbling(100), late);
  ASSERT_TRUE(processor.Init(&ctx).ok());

  Inbox inbox;
  inbox.Add(Item::Data<int64_t>(1, 50, HashU64(1)));
  inbox.Add(Item::Data<int64_t>(1, 150, HashU64(1)));
  processor.Process(0, &inbox);
  ASSERT_TRUE(processor.TryProcessWatermark(100));  // flushes frame [0,100)

  // Event at ts=70 now belongs to the flushed frame: late.
  inbox.Add(Item::Data<int64_t>(1, 70, HashU64(1)));
  processor.Process(0, &inbox);
  EXPECT_EQ(processor.late_events_dropped(), 1);
  EXPECT_EQ(late->load(), 1);

  // Frame [100,200) is still open; on-time event accepted.
  inbox.Add(Item::Data<int64_t>(1, 160, HashU64(1)));
  processor.Process(0, &inbox);
  ASSERT_TRUE(processor.TryProcessWatermark(200));

  // Total emitted partials: frame1 count 1, frame2 count 2.
  int64_t emitted = 0;
  for (auto& item : outbox.bucket(0)) {
    if (item.IsData()) emitted += item.payload.As<KeyedFrame<int64_t>>().acc;
  }
  EXPECT_EQ(emitted, 3);
}

// ---------------------------------------------------------------------------
// Rolling aggregates
// ---------------------------------------------------------------------------

TEST(RollingAggregateTest, EmitsRunningValuesPerKey) {
  constexpr int64_t kCount = 6'000;
  static ManualClock clock(int64_t{1} << 60);

  pipeline::Pipeline p;
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e9;
  opt.duration = kCount;
  opt.watermark_interval = 1000;
  opt.start_time = 0;
  auto results =
      p.ReadFrom<int64_t>(
           "ints",
           [](int64_t seq) {
             return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq % 3)));
           },
           opt)
          .GroupingKey([](const int64_t& v) { return static_cast<uint64_t>(v % 3); })
          .RollingAggregate<int64_t, int64_t>("running-count",
                                              CountingAggregate<int64_t>())
          .CollectTo("sink");

  auto dag = p.ToDag();
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  JobParams params;
  params.dag = &*dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  // One output per input; per key the max running value is the key's total.
  auto values = results->Snapshot();
  ASSERT_EQ(values.size(), static_cast<size_t>(kCount));
  std::map<uint64_t, int64_t> max_per_key;
  for (const auto& r : values) {
    max_per_key[r.key] = std::max(max_per_key[r.key], r.value);
  }
  ASSERT_EQ(max_per_key.size(), 3u);
  for (const auto& [key, max_count] : max_per_key) EXPECT_EQ(max_count, kCount / 3);
}

TEST(RollingAggregateTest, StateSurvivesExactlyOnceRestore) {
  imdg::DataGrid grid(1);
  ASSERT_TRUE(grid.AddMember(0).ok());
  imdg::SnapshotStore store(&grid);

  auto build_dag = [](std::shared_ptr<SyncCollector<RollingResult<int64_t>>> collector,
                      Dag* dag) {
    auto op = CountingAggregate<int64_t>();
    VertexId source = dag->AddVertex(
        "source",
        [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
          GeneratorSourceP<int64_t>::Options opt;
          opt.events_per_second = 100'000;
          opt.duration = 1'200 * kNanosPerMilli;
          opt.watermark_interval = 10 * kNanosPerMilli;
          return std::make_unique<GeneratorSourceP<int64_t>>(
              [](int64_t seq) {
                return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq % 4)));
              },
              opt);
        },
        1);
    VertexId rolling = dag->AddVertex(
        "rolling",
        [op](const ProcessorMeta&) {
          return std::make_unique<RollingAggregateP<int64_t, int64_t, int64_t>>(
              op, [](const int64_t& v) { return static_cast<uint64_t>(v % 4); });
        },
        2);
    VertexId sink = dag->AddVertex(
        "sink",
        [collector](const ProcessorMeta&) {
          return std::make_unique<CollectSinkP<RollingResult<int64_t>>>(collector);
        },
        1);
    auto& e = dag->AddEdge(source, rolling);
    e.routing = RoutingPolicy::kPartitioned;
    dag->AddEdge(rolling, sink);
  };

  auto collector = std::make_shared<SyncCollector<RollingResult<int64_t>>>();
  Dag dag;
  build_dag(collector, &dag);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.config.guarantee = ProcessingGuarantee::kExactlyOnce;
  params.config.snapshot_interval = 50 * kNanosPerMilli;
  params.snapshot_store = &store;
  params.job_id = 31;

  auto job1 = Job::Create(params);
  ASSERT_TRUE(job1.ok());
  ASSERT_TRUE((*job1)->Start().ok());
  for (int i = 0; i < 3000 && (*job1)->last_committed_snapshot() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE((*job1)->last_committed_snapshot(), 2);
  (*job1)->Cancel();
  (void)(*job1)->Join();
  int64_t restore = (*job1)->last_committed_snapshot();
  job1->reset();

  params.restore_snapshot_id = restore;
  auto job2 = Job::Create(params);
  ASSERT_TRUE(job2.ok());
  ASSERT_TRUE((*job2)->Start().ok());
  ASSERT_TRUE((*job2)->Join().ok());

  // Exactly-once state: the final running count per key is exactly the
  // number of events of that key (duplicates at the sink allowed; the MAX
  // per key reflects the state).
  std::map<uint64_t, int64_t> max_per_key;
  for (const auto& r : collector->Snapshot()) {
    max_per_key[r.key] = std::max(max_per_key[r.key], r.value);
  }
  const int64_t expected_per_key = 120'000 / 4;
  ASSERT_EQ(max_per_key.size(), 4u);
  for (const auto& [key, max_count] : max_per_key) {
    EXPECT_EQ(max_count, expected_per_key) << "key " << key;
  }
}

// ---------------------------------------------------------------------------
// Metrics (Management Center view)
// ---------------------------------------------------------------------------

TEST(MetricsTest, JobMetricsReflectWork) {
  constexpr int64_t kCount = 5'000;
  Dag dag;
  VertexId source = dag.AddVertex(
      "source",
      [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;
        opt.duration = kCount;
        opt.watermark_interval = 1000;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) { return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq))); },
            opt);
      },
      1);
  auto counter = std::make_shared<std::atomic<int64_t>>(0);
  VertexId sink = dag.AddVertex(
      "the-sink",
      [counter](const ProcessorMeta&) {
        return std::make_unique<CountSinkP<int64_t>>(counter);
      },
      1);
  dag.AddEdge(source, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.job_id = 77;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  JobMetrics m = (*job)->Metrics();
  EXPECT_EQ(m.job_id, 77);
  ASSERT_EQ(m.tasklets.size(), 2u);
  EXPECT_EQ(m.TotalItemsProcessed(), kCount);  // sink consumed every event
  for (const auto& t : m.tasklets) {
    EXPECT_TRUE(t.done);
    EXPECT_GT(t.calls, 0);
    EXPECT_GE(t.idle_calls, 0);
    EXPECT_LE(t.idle_calls, t.calls);
  }
  std::string report = m.ToString();
  EXPECT_NE(report.find("the-sink"), std::string::npos);
  EXPECT_NE(report.find("job 77"), std::string::npos);
}

// A source that offers `count` items in its first Complete() call, past
// the outbox capacity, then idles.
class BurstSourceP final : public Processor {
 public:
  explicit BurstSourceP(int count) : count_(count) {}

  bool Complete() override {
    for (; count_ > 0; --count_) ctx()->outbox->OfferToAll(Item::Data<int>(count_, 0));
    return false;
  }

 private:
  int count_;
};

// tasklet.outbox_depth counts the items the outbox has not delivered yet,
// not the delivered slots the drain cursor leaves in the bucket's storage.
TEST(MetricsTest, OutboxDepthCountsUndeliveredItems) {
  obs::MetricsRegistry registry;
  ManualClock clock(0);
  ProcessorContext context;
  context.config.outbox_capacity = 4;
  context.clock = &clock;
  context.metrics = &registry;
  auto queue = std::make_shared<ItemQueue>(2);
  std::vector<OutboundCollector> collectors;
  collectors.emplace_back(RoutingPolicy::kUnicast, std::vector<ItemQueuePtr>{queue},
                          std::vector<RemoteSink>{}, /*total_parallelism=*/1,
                          /*node_count=*/1, /*node_id=*/0);
  ProcessorTasklet tasklet("burst", std::make_unique<BurstSourceP>(10), context, {},
                           std::move(collectors), ProcessingGuarantee::kNone, nullptr);
  ASSERT_TRUE(tasklet.Init().ok());
  auto outbox_depth = [&registry]() {
    for (const auto& m : registry.Snapshot()) {
      if (m.id.name == "tasklet.outbox_depth") return m.value;
    }
    return int64_t{-1};
  };

  tasklet.Call();  // offers 10; the 2-slot queue takes 2
  EXPECT_EQ(outbox_depth(), 8);
  Item item;
  while (queue->TryPop(item)) {
  }
  tasklet.Call();  // 2 more
  EXPECT_EQ(outbox_depth(), 6);
}

// A sink that records, in order, every data item it is handed.
class RecordingSinkP final : public Processor {
 public:
  explicit RecordingSinkP(std::vector<int>* seen) : seen_(seen) {}

  void Process(int, Inbox* inbox) override {
    while (!inbox->Empty()) seen_->push_back(inbox->Poll().payload.As<int>());
  }

 private:
  std::vector<int>* seen_;
};

// §3.2's time slice: one tasklet call moves at most kMaxInboxBatch (256)
// items into the processor's inbox, however deep the input queue is; the
// rest stay queued, in order, for later calls.
TEST(TimeSliceTest, OneCallHandsTheProcessorAtMost256Items) {
  constexpr int kItems = 1000;
  ASSERT_EQ(ProcessorTasklet::kMaxInboxBatch, 256);
  ManualClock clock(0);
  ProcessorContext context;
  context.clock = &clock;
  auto queue = std::make_shared<ItemQueue>(1024);
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(queue->TryPush(Item::Data<int>(i, 0)));
  std::vector<InboundStream> inputs(1);
  inputs[0].queues.push_back(InboundQueue{queue});
  std::vector<int> seen;
  ProcessorTasklet tasklet("sink", std::make_unique<RecordingSinkP>(&seen), context,
                           std::move(inputs), {}, ProcessingGuarantee::kNone, nullptr);
  ASSERT_TRUE(tasklet.Init().ok());

  bool checked_first_slice = false;
  for (int call = 0; call < 100 && seen.size() < kItems; ++call) {
    const size_t before = seen.size();
    tasklet.Call();
    const size_t handed = seen.size() - before;
    EXPECT_LE(handed, static_cast<size_t>(ProcessorTasklet::kMaxInboxBatch));
    if (handed > 0 && !checked_first_slice) {
      checked_first_slice = true;
      EXPECT_EQ(queue->SizeApprox(), static_cast<size_t>(kItems) - handed);
      Item* front = queue->Peek();
      ASSERT_NE(front, nullptr);
      EXPECT_EQ(front->payload.As<int>(), static_cast<int>(handed));
    }
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// In-place inbox: the processor reads its run in the inbound ring
// ---------------------------------------------------------------------------

// A sink that takes at most `per_call` items per Process call, as a
// processor whose outbox filled up would, and logs every data payload and
// (as -wm) every watermark it is handed, in order.
class StingySinkP final : public Processor {
 public:
  StingySinkP(size_t per_call, std::vector<int64_t>* log) : per_call_(per_call), log_(log) {}

  void Process(int, Inbox* inbox) override {
    for (size_t n = 0; n < per_call_ && !inbox->Empty(); ++n) {
      log_->push_back(inbox->Peek()->payload.As<int64_t>());
      inbox->RemoveFront();
    }
  }

  bool TryProcessWatermark(Nanos wm) override {
    log_->push_back(-wm);
    return true;
  }

 private:
  size_t per_call_;
  std::vector<int64_t>* log_;
};

Item DataItem(int64_t v) { return Item::Data<int64_t>(v, 0); }

// One sink tasklet on `queues` inbound queues of one stream.
std::unique_ptr<ProcessorTasklet> MakeSinkTasklet(
    const std::vector<ItemQueuePtr>& queues, std::unique_ptr<Processor> processor,
    ProcessingGuarantee guarantee, SnapshotControl* snapshot_control,
    ManualClock* clock) {
  ProcessorContext context;
  context.clock = clock;
  std::vector<InboundStream> inputs(1);
  for (const auto& q : queues) inputs[0].queues.push_back(InboundQueue{q});
  auto tasklet = std::make_unique<ProcessorTasklet>("sink", std::move(processor), context,
                                                    std::move(inputs),
                                                    std::vector<OutboundCollector>{},
                                                    guarantee, snapshot_control);
  EXPECT_TRUE(tasklet->Init().ok());
  return tasklet;
}

// Items the processor leaves stay in their ring slots, holding the
// producer back, and are re-offered in order on the next call.
TEST(InPlaceInboxTest, ItemsLeftByTheProcessorAreReofferedInOrder) {
  ManualClock clock(0);
  auto queue = std::make_shared<ItemQueue>(8);
  for (int64_t v = 0; v < 8; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  std::vector<int64_t> log;
  auto tasklet = MakeSinkTasklet({queue}, std::make_unique<StingySinkP>(3, &log),
                                 ProcessingGuarantee::kNone, nullptr, &clock);

  tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1, 2}));
  // Only the 3 consumed slots were freed: the 5 left are still in the ring.
  EXPECT_EQ(queue->SizeApprox(), 5u);
  EXPECT_EQ(queue->Peek()->payload.As<int64_t>(), 3);
  for (int64_t v = 8; v < 11; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  EXPECT_FALSE(queue->TryPush(DataItem(99)));

  tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(queue->SizeApprox(), 5u);
  for (int call = 0; call < 10; ++call) tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(tasklet->items_processed(), 11);
  EXPECT_TRUE(queue->EmptyApprox());
}

// A watermark queued behind a data run reaches the processor only once the
// whole run ahead of it was consumed, however many calls that takes.
TEST(InPlaceInboxTest, WatermarkBehindARunWaitsForTheRun) {
  ManualClock clock(0);
  auto queue = std::make_shared<ItemQueue>(16);
  for (int64_t v = 0; v < 5; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  ASSERT_TRUE(queue->TryPush(Item::WatermarkAt(100)));
  ASSERT_TRUE(queue->TryPush(DataItem(5)));
  std::vector<int64_t> log;
  auto tasklet = MakeSinkTasklet({queue}, std::make_unique<StingySinkP>(2, &log),
                                 ProcessingGuarantee::kNone, nullptr, &clock);

  for (int call = 0; call < 20; ++call) tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1, 2, 3, 4, -100, 5}));
}

// The fill that consumes only the watermark switches to the watermark step
// on its own Call, so the processor gets the watermark on the next one.
TEST(InPlaceInboxTest, WatermarkBehindAConsumedRunReachesTheProcessorOnTheNextCall) {
  ManualClock clock(0);
  auto queue = std::make_shared<ItemQueue>(16);
  for (int64_t v = 0; v < 4; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  ASSERT_TRUE(queue->TryPush(Item::WatermarkAt(100)));
  std::vector<int64_t> log;
  auto tasklet = MakeSinkTasklet({queue}, std::make_unique<StingySinkP>(2, &log),
                                 ProcessingGuarantee::kNone, nullptr, &clock);

  tasklet->Call();
  tasklet->Call();
  ASSERT_EQ(log, (std::vector<int64_t>{0, 1, 2, 3}));  // the run is consumed
  tasklet->Call();  // pops the watermark
  EXPECT_EQ(log.size(), 4u);
  tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1, 2, 3, -100}));
}

// A processor that re-stages its inbox (drains it and Adds the items back,
// as perfbench's timing wrapper does) moves the run out of the ring into
// the inbox's own storage: every ring slot is freed, and each item still
// reaches the processor once, in order.
class RestagingSinkP final : public Processor {
 public:
  explicit RestagingSinkP(std::vector<int64_t>* log) : inner_(2, log) {}

  void Process(int ordinal, Inbox* inbox) override {
    staged_.clear();
    inbox->DrainTo(&staged_, inbox->Size());
    for (Item& item : staged_) inbox->Add(std::move(item));
    inner_.Process(ordinal, inbox);
  }

 private:
  StingySinkP inner_;
  std::vector<Item> staged_;
};

TEST(InPlaceInboxTest, RestagedRunLeavesTheRingAndIsConsumedOnce) {
  ManualClock clock(0);
  auto queue = std::make_shared<ItemQueue>(8);
  for (int64_t v = 0; v < 5; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  std::vector<int64_t> log;
  auto tasklet = MakeSinkTasklet({queue}, std::make_unique<RestagingSinkP>(&log),
                                 ProcessingGuarantee::kNone, nullptr, &clock);

  tasklet->Call();
  EXPECT_EQ(log, (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(queue->EmptyApprox());  // the 3 left were moved out of the ring
  for (int64_t v = 5; v < 13; ++v) ASSERT_TRUE(queue->TryPush(DataItem(v)));
  for (int call = 0; call < 20; ++call) tasklet->Call();
  std::vector<int64_t> expected(13);
  for (int64_t v = 0; v < 13; ++v) expected[static_cast<size_t>(v)] = v;
  EXPECT_EQ(log, expected);
  EXPECT_TRUE(queue->EmptyApprox());
}

// An at-least-once barrier does not block its queue: the items behind it
// are processed before the other queue delivers the barrier. Under
// exactly-once the same queue waits for alignment.
TEST(InPlaceInboxTest, AtLeastOnceBarrierDoesNotBlock) {
  auto run = [](ProcessingGuarantee guarantee) {
    ManualClock clock(0);
    SnapshotControl control;
    auto q0 = std::make_shared<ItemQueue>(16);
    auto q1 = std::make_shared<ItemQueue>(16);
    for (int64_t v : {0, 1}) EXPECT_TRUE(q0->TryPush(DataItem(v)));
    EXPECT_TRUE(q0->TryPush(Item::BarrierFor(1)));
    for (int64_t v : {2, 3}) EXPECT_TRUE(q0->TryPush(DataItem(v)));
    EXPECT_TRUE(q1->TryPush(DataItem(10)));
    std::vector<int64_t> log;
    auto tasklet = MakeSinkTasklet({q0, q1}, std::make_unique<StingySinkP>(256, &log),
                                   guarantee, &control, &clock);
    for (int call = 0; call < 20; ++call) tasklet->Call();
    EXPECT_EQ(tasklet->completed_snapshot_id(), 0);  // q1 never sent the barrier
    return std::set<int64_t>(log.begin(), log.end());
  };
  EXPECT_EQ(run(ProcessingGuarantee::kAtLeastOnce), (std::set<int64_t>{0, 1, 2, 3, 10}));
  EXPECT_EQ(run(ProcessingGuarantee::kExactlyOnce), (std::set<int64_t>{0, 1, 10}));
}

// ---------------------------------------------------------------------------
// In-place outbox: a source builds its items in the downstream ring
// ---------------------------------------------------------------------------

// A source's watermark emitted mid-batch goes to the outbox bucket, and so
// does every item after it until the bucket drains; the items before it
// were built in the ring. Each watermark must still arrive right behind
// the data item that triggered it, and every item exactly once, in order.
TEST(InPlaceOutboxTest, GeneratorWatermarkArrivesBehindTheDataEmittedBeforeIt) {
  constexpr int64_t kEvents = 2'000;
  ManualClock clock(kNanosPerSecond);  // every event is due at once
  GeneratorSourceP<int64_t>::Options options;
  options.events_per_second = 1e6;
  options.duration = kEvents * 1'000;
  options.watermark_interval = 37'000;  // one watermark per 37 events
  options.start_time = 0;
  options.virtual_partitions = 1;
  auto source = std::make_unique<GeneratorSourceP<int64_t>>(
      [](int64_t seq) { return std::pair<int64_t, uint64_t>{seq, 0}; }, options);
  ProcessorContext context;
  context.clock = &clock;
  context.meta.total_parallelism = 1;
  context.meta.global_index = 0;
  context.config.outbox_capacity = 64;
  auto queue = std::make_shared<ItemQueue>(256);
  std::vector<OutboundCollector> collectors;
  collectors.emplace_back(RoutingPolicy::kIsolated, std::vector<ItemQueuePtr>{queue},
                          std::vector<RemoteSink>{}, 1, 1, 0, 0);
  ProcessorTasklet tasklet("source", std::move(source), context, {}, std::move(collectors),
                           ProcessingGuarantee::kNone, nullptr);
  ASSERT_TRUE(tasklet.Init().ok());

  std::vector<int64_t> data;
  std::vector<std::pair<size_t, Nanos>> watermarks;  // (data items ahead, value)
  bool done = false;
  for (int call = 0; call < 10'000 && !done; ++call) {
    tasklet.Call();
    Item item;
    while (queue->TryPop(item)) {
      if (item.IsData()) {
        data.push_back(item.payload.As<int64_t>());
      } else if (item.IsWatermark()) {
        watermarks.emplace_back(data.size(), item.timestamp);
      } else {
        done = item.kind == ItemKind::kDone;
      }
    }
  }
  ASSERT_TRUE(done);
  ASSERT_EQ(data.size(), static_cast<size_t>(kEvents));
  for (int64_t i = 0; i < kEvents; ++i) ASSERT_EQ(data[static_cast<size_t>(i)], i);
  ASSERT_GT(watermarks.size(), 20u);
  for (const auto& [ahead, wm] : watermarks) {
    if (wm == kMaxWatermark) continue;
    // Event i is stamped i µs: the one that triggered this watermark is
    // the last data item ahead of it.
    ASSERT_GT(ahead, 0u);
    EXPECT_EQ(wm, static_cast<Nanos>(ahead - 1) * 1'000) << "watermark after " << ahead;
  }
}

// ---------------------------------------------------------------------------
// Non-cooperative processors (§3.2: dedicated threads)
// ---------------------------------------------------------------------------

// A "blocking" source (models a 3rd-party API with blocking reads, §3.1):
// runs on a dedicated thread, so it may sleep without stalling the
// cooperative workers.
class BlockingSourceP final : public Processor {
 public:
  explicit BlockingSourceP(int64_t count) : count_(count) {}

  bool IsCooperative() const override { return false; }

  bool Complete() override {
    if (ctx()->IsCancelled()) return true;
    // Deliberately block (forbidden for cooperative tasklets).
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    int32_t batch = 64;
    while (batch-- > 0 && emitted_ < count_ && ctx()->outbox->HasRoom()) {
      ctx()->outbox->OfferToAll(Item::Data<int64_t>(
          emitted_, emitted_, HashU64(static_cast<uint64_t>(emitted_))));
      ++emitted_;
    }
    return emitted_ >= count_;
  }

 private:
  int64_t count_;
  int64_t emitted_ = 0;
};

TEST(NonCooperativeTest, BlockingSourceRunsOnDedicatedThread) {
  constexpr int64_t kCount = 2'000;
  Dag dag;
  VertexId source = dag.AddVertex(
      "blocking-source",
      [kCount](const ProcessorMeta&) { return std::make_unique<BlockingSourceP>(kCount); },
      1);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      1);
  dag.AddEdge(source, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 1;  // the blocking source must not occupy it
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kCount));
}

}  // namespace
}  // namespace jet::core
