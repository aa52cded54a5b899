#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dag.h"
#include "core/job.h"
#include "core/processors_basic.h"
#include "core/processors_window.h"

namespace jet::core {
namespace {

// Event for keyed windowed aggregation tests.
struct Event {
  uint64_t key = 0;
  int64_t amount = 0;
};

struct WindowedJobResult {
  std::vector<WindowResult<int64_t>> results;
};

// Optional extras of RunCountWindowJob.
struct WindowJobShape {
  /// When > 0, a FlatMapP vertex between source and accumulate emits every
  /// event this many times.
  int32_t fan_out = 0;
  JobConfig config;
  /// Receives the accumulate stage's late-event drops.
  std::shared_ptr<std::atomic<int64_t>> late;
};

// Runs: generator(count events, one per `period_ns` of event time, key =
// seq % key_count) -> [flat-map] -> accumulate (parallelism ap) -> combine
// (parallelism cp, partitioned) -> collect. Returns all emitted window
// results.
std::vector<WindowResult<int64_t>> RunCountWindowJob(
    int64_t count, int64_t key_count, Nanos period_ns, WindowDef window,
    AggregateOperation<Event, int64_t, int64_t> op, int32_t ap = 2, int32_t cp = 2,
    const WindowJobShape& shape = {}) {
  // A manual clock far in the future makes every event due immediately and
  // anchors event time 0 deterministically, so runs are exactly comparable.
  static ManualClock manual_clock(int64_t{1} << 60);
  Dag dag;
  VertexId source = dag.AddVertex(
      "source",
      [count, key_count, period_ns](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<Event>::Options opt;
        opt.events_per_second = 1e9 / static_cast<double>(period_ns);
        opt.duration = count * period_ns;
        opt.watermark_interval = period_ns;
        opt.start_time = 0;
        return std::make_unique<GeneratorSourceP<Event>>(
            [key_count](int64_t seq) {
              Event e{static_cast<uint64_t>(seq % key_count), seq};
              return std::make_pair(e, HashU64(e.key));
            },
            opt);
      },
      1);
  VertexId accumulate = dag.AddVertex(
      "accumulate",
      [op, window, late = shape.late](const ProcessorMeta&) {
        return std::make_unique<AccumulateByFrameP<Event, int64_t, int64_t>>(
            op, [](const Event& e) { return e.key; }, window, late);
      },
      ap);
  VertexId combine = dag.AddVertex(
      "combine",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<CombineFramesP<Event, int64_t, int64_t>>(op, window);
      },
      cp);
  auto collector = std::make_shared<SyncCollector<WindowResult<int64_t>>>();
  VertexId sink = dag.AddVertex(
      "sink",
      [collector](const ProcessorMeta&) {
        return std::make_unique<CollectSinkP<WindowResult<int64_t>>>(collector);
      },
      1);
  if (shape.fan_out > 0) {
    VertexId flat_map = dag.AddVertex(
        "fan-out",
        [n = shape.fan_out](const ProcessorMeta&) {
          return std::make_unique<FlatMapP<Event, Event>>(
              [n](const Event& e, std::vector<OutRecord<Event>>* out) {
                for (int32_t i = 0; i < n; ++i) out->push_back({e, std::nullopt, std::nullopt});
              });
        },
        1);
    dag.AddEdge(source, flat_map);
    dag.AddEdge(flat_map, accumulate);
  } else {
    dag.AddEdge(source, accumulate);
  }
  dag.AddEdge(accumulate, combine).routing = RoutingPolicy::kPartitioned;
  dag.AddEdge(combine, sink);

  JobParams params;
  params.config = shape.config;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.clock = &manual_clock;
  auto job = Job::Create(params);
  EXPECT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_TRUE((*job)->Start().ok());
  EXPECT_TRUE((*job)->Join().ok());
  return collector->Snapshot();
}

// Reference: brute-force tumbling window counts. The manual clock and the
// source's start time 0 give event seq s the timestamp s * period, so the
// exact count of every (key, window) is known.
//
// The second shape puts a 1->3 FlatMapP in front of the window with a
// one-item outbox, so every flat-map step overfills it: all three copies
// must still reach the window before the next watermark does.
TEST(WindowTest, TumblingCountMatchesReference) {
  constexpr int64_t kCount = 10'000;
  constexpr int64_t kKeys = 10;
  constexpr Nanos kPeriod = 1000;  // 1 event / us
  WindowDef window = WindowDef::Tumbling(kNanosPerMilli);  // 1000 events per window

  WindowJobShape fan_out;
  fan_out.fan_out = 3;
  fan_out.config.outbox_capacity = 1;
  for (WindowJobShape shape : {WindowJobShape{}, fan_out}) {
    SCOPED_TRACE("fan_out=" + std::to_string(shape.fan_out));
    shape.late = std::make_shared<std::atomic<int64_t>>(0);
    const int64_t copies = std::max(1, shape.fan_out);
    auto results = RunCountWindowJob(kCount, kKeys, kPeriod, window,
                                     CountingAggregate<Event>(), 2, 2, shape);

    // Total counted events across all windows must equal the event count.
    int64_t total = 0;
    for (const auto& r : results) total += r.value;
    EXPECT_EQ(total, kCount * copies);
    EXPECT_EQ(shape.late->load(), 0);

    // Each (key, window_end) appears at most once.
    std::set<std::pair<uint64_t, Nanos>> seen;
    for (const auto& r : results) {
      auto [it, inserted] = seen.insert({r.key, r.window_end});
      EXPECT_TRUE(inserted) << "duplicate window result for key " << r.key;
      EXPECT_EQ(r.window_end - r.window_start, window.size);
    }

    // Full windows hold exactly events/window / keys per key.
    std::map<Nanos, int64_t> per_window_total;
    for (const auto& r : results) per_window_total[r.window_end] += r.value;
    int64_t full_windows = 0;
    for (const auto& [end, sum] : per_window_total) {
      if (sum == copies * kNanosPerMilli / kPeriod) ++full_windows;
    }
    EXPECT_GE(full_windows, kCount * kPeriod / kNanosPerMilli - 2);

    std::map<std::pair<uint64_t, Nanos>, int64_t> expected, got;
    for (int64_t seq = 0; seq < kCount; ++seq) {
      expected[{static_cast<uint64_t>(seq % kKeys), window.FrameEndFor(seq * kPeriod)}] +=
          copies;
    }
    for (const auto& r : results) got[{r.key, r.window_end}] += r.value;
    EXPECT_EQ(got, expected);
  }
}

// Sliding windows: every event is counted window_size/slide times.
TEST(WindowTest, SlidingCountCountsEachEventNTimes) {
  constexpr int64_t kCount = 4'000;
  constexpr int64_t kKeys = 7;
  constexpr Nanos kPeriod = 1000;
  WindowDef window = WindowDef::Sliding(4 * kNanosPerMilli, kNanosPerMilli);

  auto results =
      RunCountWindowJob(kCount, kKeys, kPeriod, window, CountingAggregate<Event>());

  int64_t total = 0;
  for (const auto& r : results) total += r.value;
  // Each event appears in exactly 4 windows (all windows flushed at end).
  EXPECT_EQ(total, kCount * 4);
}

// The deduct-based path and the recombine path must agree exactly.
TEST(WindowTest, DeductAndRecombinePathsAgree) {
  constexpr int64_t kCount = 6'000;
  constexpr int64_t kKeys = 13;
  constexpr Nanos kPeriod = 1000;
  WindowDef window = WindowDef::Sliding(3 * kNanosPerMilli, kNanosPerMilli);

  auto with_deduct = CountingAggregate<Event>();
  auto without_deduct = CountingAggregate<Event>();
  without_deduct.deduct = nullptr;

  auto a = RunCountWindowJob(kCount, kKeys, kPeriod, window, with_deduct);
  auto b = RunCountWindowJob(kCount, kKeys, kPeriod, window, without_deduct);

  // With the deterministic clock, both runs must produce identical
  // (key, window_end) -> value mappings.
  std::map<std::pair<uint64_t, Nanos>, int64_t> ma, mb;
  for (const auto& r : a) ma[{r.key, r.window_end}] = r.value;
  for (const auto& r : b) mb[{r.key, r.window_end}] = r.value;
  EXPECT_EQ(ma, mb);
}

// Summing aggregate over sliding windows preserves the total mass
// (each event's amount counted size/slide times).
TEST(WindowTest, SlidingSumPreservesMass) {
  constexpr int64_t kCount = 3'000;
  constexpr int64_t kKeys = 5;
  constexpr Nanos kPeriod = 1000;
  WindowDef window = WindowDef::Sliding(2 * kNanosPerMilli, kNanosPerMilli);

  auto op = SummingAggregate<Event>([](const Event& e) { return e.amount; });
  auto results = RunCountWindowJob(kCount, kKeys, kPeriod, window, op);

  int64_t total = 0;
  for (const auto& r : results) total += r.value;
  EXPECT_EQ(total, 2 * kCount * (kCount - 1) / 2);
}

// Max aggregate (no deduct) across tumbling windows: max of each window is
// bounded by the global max and appears for each key.
TEST(WindowTest, TumblingMaxEmitsPerKey) {
  constexpr int64_t kCount = 2'000;
  constexpr int64_t kKeys = 4;
  constexpr Nanos kPeriod = 1000;
  WindowDef window = WindowDef::Tumbling(kNanosPerMilli);

  auto op = MaxAggregate<Event>([](const Event& e) { return e.amount; });
  auto results = RunCountWindowJob(kCount, kKeys, kPeriod, window, op);

  ASSERT_FALSE(results.empty());
  std::set<uint64_t> keys;
  for (const auto& r : results) {
    EXPECT_LT(r.value, kCount);
    EXPECT_GE(r.value, 0);
    keys.insert(r.key);
  }
  EXPECT_EQ(keys.size(), static_cast<size_t>(kKeys));
}

// Window definition helpers.
TEST(WindowDefTest, FrameEndComputation) {
  WindowDef w = WindowDef::Sliding(100, 10);
  EXPECT_EQ(w.FrameEndFor(0), 10);
  EXPECT_EQ(w.FrameEndFor(9), 10);
  EXPECT_EQ(w.FrameEndFor(10), 20);
  EXPECT_EQ(w.FrameEndFor(95), 100);
}

// Higher parallelism in both stages must not change the aggregate result.
TEST(WindowTest, ParallelismInvariance) {
  constexpr int64_t kCount = 3'000;
  constexpr int64_t kKeys = 11;
  constexpr Nanos kPeriod = 1000;
  WindowDef window = WindowDef::Tumbling(kNanosPerMilli);

  auto r1 = RunCountWindowJob(kCount, kKeys, kPeriod, window, CountingAggregate<Event>(),
                              /*ap=*/1, /*cp=*/1);
  auto r4 = RunCountWindowJob(kCount, kKeys, kPeriod, window, CountingAggregate<Event>(),
                              /*ap=*/4, /*cp=*/4);

  int64_t t1 = 0, t4 = 0;
  for (const auto& r : r1) t1 += r.value;
  for (const auto& r : r4) t4 += r.value;
  EXPECT_EQ(t1, kCount);
  EXPECT_EQ(t4, kCount);
}

}  // namespace
}  // namespace jet::core
