#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/serde.h"
#include "core/dag.h"
#include "core/job.h"
#include "core/processors_basic.h"

namespace jet::core {
namespace {

// Builds a source vertex emitting the integers [0, n) as fast as possible
// (event time = sequence * 1us), completing afterwards.
VertexId AddIntSource(Dag* dag, int64_t n, int32_t parallelism = 1) {
  return dag->AddVertex(
      "source",
      [n](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;  // 1 event per ns: effectively "as fast as possible"
        opt.duration = n;             // n events at 1/ns
        opt.watermark_interval = 1;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) { return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq))); },
            opt);
      },
      parallelism);
}

TEST(DagTest, ValidateRejectsEmptyDag) {
  Dag dag;
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, ValidateRejectsCycle) {
  Dag dag;
  auto supplier = [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
    return MakeFilterP<int64_t>([](const int64_t&) { return true; });
  };
  VertexId a = dag.AddVertex("a", supplier, 1);
  VertexId b = dag.AddVertex("b", supplier, 1);
  dag.AddEdge(a, b);
  dag.AddEdge(b, a);
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, ValidateRejectsSelfLoop) {
  Dag dag;
  auto supplier = [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
    return MakeFilterP<int64_t>([](const int64_t&) { return true; });
  };
  VertexId a = dag.AddVertex("a", supplier, 1);
  dag.AddEdge(a, a);
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, ValidateRejectsIsolatedEdgeWithMismatchedParallelism) {
  Dag dag;
  auto supplier = [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
    return MakeFilterP<int64_t>([](const int64_t&) { return true; });
  };
  VertexId a = dag.AddVertex("a", supplier, 2);
  VertexId b = dag.AddVertex("b", supplier, 3);
  dag.AddEdge(a, b).routing = RoutingPolicy::kIsolated;
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  Dag dag;
  auto supplier = [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
    return MakeFilterP<int64_t>([](const int64_t&) { return true; });
  };
  VertexId a = dag.AddVertex("a", supplier, 1);
  VertexId b = dag.AddVertex("b", supplier, 1);
  VertexId c = dag.AddVertex("c", supplier, 1);
  dag.AddEdge(a, b);
  dag.AddEdge(b, c);
  auto order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
  EXPECT_EQ(order[2], c);
}

// End-to-end: source -> collect sink; every emitted integer arrives once.
TEST(ExecutionTest, SourceToSinkDeliversEverything) {
  constexpr int64_t kCount = 10'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
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
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  ASSERT_EQ(values.size(), static_cast<size_t>(kCount));
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), kCount - 1);
}

// Map transform applies to every element.
TEST(ExecutionTest, MapTransformsEveryItem) {
  constexpr int64_t kCount = 5'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
  VertexId map = dag.AddVertex(
      "map",
      [](const ProcessorMeta&) {
        return MakeMapP<int64_t, int64_t>([](const int64_t& v) { return v * 2; });
      },
      2);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      1);
  dag.AddEdge(source, map);
  dag.AddEdge(map, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  ASSERT_EQ(values.size(), static_cast<size_t>(kCount));
  int64_t sum = std::accumulate(values.begin(), values.end(), int64_t{0});
  EXPECT_EQ(sum, kCount * (kCount - 1));  // 2 * sum(0..n-1)
}

// Filter keeps only matching elements.
TEST(ExecutionTest, FilterDropsNonMatching) {
  constexpr int64_t kCount = 4'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
  VertexId filter = dag.AddVertex(
      "filter",
      [](const ProcessorMeta&) {
        return MakeFilterP<int64_t>([](const int64_t& v) { return v % 4 == 0; });
      },
      2);
  auto counter = std::make_shared<std::atomic<int64_t>>(0);
  VertexId sink = dag.AddVertex(
      "sink",
      [counter](const ProcessorMeta&) {
        return std::make_unique<CountSinkP<int64_t>>(counter);
      },
      1);
  dag.AddEdge(source, filter);
  dag.AddEdge(filter, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(counter->load(), kCount / 4);
}

// FlatMap fan-out produces several outputs per input.
TEST(ExecutionTest, FlatMapFansOut) {
  constexpr int64_t kCount = 2'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
  VertexId flat = dag.AddVertex(
      "flatmap",
      [](const ProcessorMeta&) {
        return std::make_unique<FlatMapP<int64_t, int64_t>>(
            [](const int64_t& v, std::vector<OutRecord<int64_t>>* out) {
              for (int i = 0; i < 3; ++i) {
                out->push_back(OutRecord<int64_t>{v, std::nullopt, std::nullopt});
              }
            });
      },
      1);
  auto counter = std::make_shared<std::atomic<int64_t>>(0);
  VertexId sink = dag.AddVertex(
      "sink",
      [counter](const ProcessorMeta&) {
        return std::make_unique<CountSinkP<int64_t>>(counter);
      },
      1);
  dag.AddEdge(source, flat);
  dag.AddEdge(flat, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(counter->load(), kCount * 3);
}

// Parallel source instances shard the sequence space without overlap, and a
// partitioned edge routes each key consistently.
TEST(ExecutionTest, ParallelSourceAndPartitionedEdge) {
  constexpr int64_t kCount = 8'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount, /*parallelism=*/3);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      4);
  dag.AddEdge(source, sink).routing = RoutingPolicy::kPartitioned;

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(values.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(unique.size(), static_cast<size_t>(kCount));
}

// Broadcast delivers every item to every consumer instance.
TEST(ExecutionTest, BroadcastDeliversToAllInstances) {
  constexpr int64_t kCount = 1'000;
  constexpr int32_t kSinkParallelism = 3;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
  auto counter = std::make_shared<std::atomic<int64_t>>(0);
  VertexId sink = dag.AddVertex(
      "sink",
      [counter](const ProcessorMeta&) {
        return std::make_unique<CountSinkP<int64_t>>(counter);
      },
      kSinkParallelism);
  dag.AddEdge(source, sink).routing = RoutingPolicy::kBroadcast;

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(counter->load(), kCount * kSinkParallelism);
}

// Tiny queues force backpressure; everything still arrives exactly once.
TEST(ExecutionTest, BackpressureWithTinyQueues) {
  constexpr int64_t kCount = 5'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      1);
  dag.AddEdge(source, sink).queue_size = 4;

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  auto values = collector->Snapshot();
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(values.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(unique.size(), static_cast<size_t>(kCount));
}

// The isolated routing policy pins instance i of the producer to instance i
// of the consumer.
TEST(ExecutionTest, IsolatedEdgePreservesInstancePairs) {
  constexpr int64_t kCount = 3'000;
  Dag dag;
  VertexId source = AddIntSource(&dag, kCount, /*parallelism=*/2);
  VertexId map = dag.AddVertex(
      "map",
      [](const ProcessorMeta&) {
        return MakeMapP<int64_t, int64_t>([](const int64_t& v) { return v; });
      },
      2);
  auto collector = std::make_shared<SyncCollector<int64_t>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<int64_t>>(collector);
      },
      1);
  dag.AddEdge(source, map).routing = RoutingPolicy::kIsolated;
  dag.AddEdge(map, sink);

  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(collector->Size(), static_cast<size_t>(kCount));
}

// ---------------------------------------------------------------------------
// GeneratorSourceP emission order
// ---------------------------------------------------------------------------

// One item as a test sees it leave the source: a data item's sequence and
// timestamp, or a watermark (seq -1) and its timestamp.
struct Emitted {
  int64_t seq;
  Nanos ts;
  bool operator==(const Emitted&) const = default;
};

// Takes everything a source's outbox drains, in order, as Emitted records.
struct EmittedCollector {
  std::vector<Emitted> emitted;

  size_t OfferRun(Item* first, Item* last) {
    for (Item* it = first; it != last; ++it) {
      emitted.push_back({it->payload.As<int64_t>(), it->timestamp});
    }
    return static_cast<size_t>(last - first);
  }
  bool OfferControl(const Item& item) {
    emitted.push_back({-1, item.timestamp});
    return true;
  }
};

// A restored replay cursor: shard, next round, event-time anchor, and the
// watermark the snapshot recorded.
struct Cursor {
  int32_t vp;
  int64_t next_round;
  Nanos anchor;
  Nanos wm;
};

StateEntry CursorEntry(const Cursor& c) {
  StateEntry entry;
  entry.key_hash = static_cast<uint64_t>(c.vp);
  BytesWriter key;
  key.WriteVarU64(static_cast<uint64_t>(c.vp));
  entry.key = key.Take();
  BytesWriter value;
  value.WriteVarI64(c.next_round);
  value.WriteI64(c.anchor);
  value.WriteI64(c.wm);
  entry.value = value.Take();
  return entry;
}

TEST(GeneratorSourceTest, EmissionOrderMatchesLinearScanAfterRestore) {
  using Options = GeneratorSourceP<int64_t>::Options;
  constexpr int32_t kShards = 8;
  constexpr int32_t kInstances = 2;
  constexpr Nanos kPeriod = 10;
  Options opt;
  opt.events_per_second = 1e9 / kPeriod;
  opt.duration = 2000;  // sequences [0, 200): 25 rounds per shard
  opt.watermark_interval = 45;
  opt.max_batch = 7;
  opt.virtual_partitions = kShards;

  // Every instance replays all entries, keeping the cursors of the shards it
  // owns.
  const std::vector<std::vector<Cursor>> restores = {
      // Shards 0 and 2 are anchored 20 ns apart, so their events tie
      // (1000 + 80r) and the lower shard index must win each tie. Shard 4's
      // early anchor makes it run out of events first; shard 6 restores
      // already exhausted. Shards 3 and 5 are not restored and take the
      // earliest restored anchor (400).
      {{0, 3, 1000, 1200},
       {2, 3, 980, 1210},
       {4, 0, 400, 0},
       {6, 30, 990, 0},
       {1, 5, 1000, 0},
       {7, 2, 1500, 900}},
      // One common anchor, with shard 2 four rounds and shard 5 three rounds
      // behind the other shards of their instance: each emits several times
      // in a row, every new event time still due before the latest of the
      // others', until it catches up.
      {{0, 7, 1000, 0},
       {2, 3, 1000, 0},
       {4, 7, 1000, 0},
       {6, 7, 1000, 0},
       {1, 7, 1000, 0},
       {3, 7, 1000, 0},
       {5, 4, 1000, 0},
       {7, 7, 1000, 0}},
  };
  for (size_t r = 0; r < restores.size(); ++r) {
    const std::vector<Cursor>& cursors = restores[r];
    Nanos restored_anchor = cursors.front().anchor;
    Nanos restored_wm = 0;
    for (const Cursor& c : cursors) {
      restored_anchor = std::min(restored_anchor, c.anchor);
      restored_wm = std::max(restored_wm, c.wm);
    }

    for (int32_t instance = 0; instance < kInstances; ++instance) {
      SCOPED_TRACE("restore " + std::to_string(r) + ", instance " + std::to_string(instance));
      // Brute-force reference: scan every owned shard for the earliest next
      // event, the lower shard index winning ties.
      struct RefShard {
        int32_t vp;
        int64_t round;
        Nanos anchor;
        int64_t Seq() const { return round * kShards + vp; }
        Nanos Time() const { return anchor + Seq() * kPeriod; }
      };
      std::vector<RefShard> ref;
      for (int32_t vp = instance; vp < kShards; vp += kInstances) {
        RefShard shard{vp, 0, restored_anchor};
        for (const Cursor& c : cursors) {
          if (c.vp == vp) shard = RefShard{vp, c.next_round, c.anchor};
        }
        ref.push_back(shard);
      }
      Nanos ref_last_emitted = kMinWatermark;
      Nanos ref_last_wm = restored_wm;
      auto reference_call = [&](Nanos now, std::vector<Emitted>* out) {
        for (int32_t budget = opt.max_batch; budget-- > 0;) {
          RefShard* next = nullptr;
          for (RefShard& shard : ref) {
            if (shard.Seq() * kPeriod >= opt.duration) continue;
            if (next == nullptr || shard.Time() < next->Time()) next = &shard;
          }
          if (next == nullptr) {
            out->push_back({-1, kMaxWatermark});
            return true;
          }
          const Nanos time = next->Time();
          if (time > now) return false;
          out->push_back({next->Seq(), time});
          ++next->round;
          ref_last_emitted = std::max(ref_last_emitted, time);
          if (ref_last_emitted - ref_last_wm >= opt.watermark_interval) {
            out->push_back({-1, ref_last_emitted});
            ref_last_wm = ref_last_emitted;
          }
        }
        return false;
      };

      ManualClock clock(0);
      Outbox outbox(1, 1024);
      ProcessorContext ctx;
      ctx.outbox = &outbox;
      ctx.clock = &clock;
      ctx.meta.global_index = instance;
      ctx.meta.total_parallelism = kInstances;
      GeneratorSourceP<int64_t> source(
          [](int64_t seq) { return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq))); },
          opt);
      ASSERT_TRUE(source.Init(&ctx).ok());
      for (const Cursor& c : cursors) ASSERT_TRUE(source.RestoreFromSnapshot(CursorEntry(c)).ok());

      bool done = false;
      int64_t data_items = 0;
      for (int call = 0; call < 10'000 && !done; ++call) {
        clock.Advance(53);  // often lands between events: "not yet due"
        std::vector<Emitted> expected;
        const bool ref_done = reference_call(clock.Now(), &expected);
        done = source.Complete();
        EmittedCollector got;
        outbox.DrainRuns(0, got);
        ASSERT_EQ(got.emitted, expected) << "call " << call;
        ASSERT_EQ(done, ref_done) << "call " << call;
        for (const Emitted& e : got.emitted) data_items += e.seq >= 0 ? 1 : 0;
      }
      ASSERT_TRUE(done);
      EXPECT_EQ(data_items, source.events_emitted());
      EXPECT_GT(data_items, 0);
    }
  }
}

}  // namespace
}  // namespace jet::core
