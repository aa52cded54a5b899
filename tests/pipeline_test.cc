#include <atomic>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/job.h"
#include "pipeline/pipeline.h"

namespace jet::pipeline {
namespace {

using core::GeneratorSourceP;
using core::WindowDef;
using core::WindowResult;

GeneratorSourceP<int64_t>::Options FastIntOptions(int64_t count) {
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e9;
  opt.duration = count;
  opt.watermark_interval = 1;
  opt.start_time = 0;
  return opt;
}

GeneratorSourceP<int64_t>::GenFn IntGen() {
  return [](int64_t seq) {
    return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq)));
  };
}

Status RunPipeline(Pipeline* p, const PlanOptions& options = {},
                   const core::JobConfig& config = {}) {
  static ManualClock clock(int64_t{1} << 60);
  auto dag = p->ToDag(options);
  JET_RETURN_IF_ERROR(dag.status());
  core::JobParams params;
  params.config = config;
  params.dag = &*dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = core::Job::Create(params);
  JET_RETURN_IF_ERROR(job.status());
  JET_RETURN_IF_ERROR((*job)->Start());
  return (*job)->Join();
}

TEST(PipelineTest, MapFilterChain) {
  Pipeline p;
  auto counter = p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(10'000))
                     .Map<int64_t>("triple", [](const int64_t& v) { return v * 3; })
                     .Filter("even", [](const int64_t& v) { return v % 2 == 0; })
                     .WriteToCountSink("count");
  ASSERT_TRUE(RunPipeline(&p).ok());
  EXPECT_EQ(counter->load(), 5'000);
}

TEST(PipelineTest, FusionDoesNotChangeResults) {
  for (bool fusion : {true, false}) {
    Pipeline p;
    auto collector =
        p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(4'000))
            .Map<int64_t>("inc", [](const int64_t& v) { return v + 1; })
            .Map<int64_t>("dec", [](const int64_t& v) { return v - 1; })
            .Filter("mod3", [](const int64_t& v) { return v % 3 == 0; })
            .CollectTo("sink");
    PlanOptions options;
    options.enable_fusion = fusion;
    ASSERT_TRUE(RunPipeline(&p, options).ok());
    auto values = collector->Snapshot();
    std::set<int64_t> unique(values.begin(), values.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(4'000 / 3 + 1)) << "fusion=" << fusion;
  }
}

TEST(PipelineTest, FusionReducesVertexCount) {
  Pipeline p;
  p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(10))
      .Map<int64_t>("a", [](const int64_t& v) { return v; })
      .Map<int64_t>("b", [](const int64_t& v) { return v; })
      .Map<int64_t>("c", [](const int64_t& v) { return v; })
      .WriteToCountSink("count");

  PlanOptions fused;
  auto dag_fused = p.ToDag(fused);
  ASSERT_TRUE(dag_fused.ok());
  // source + fused(a+b+c) + sink = 3.
  EXPECT_EQ(dag_fused->vertices().size(), 3u);

  PlanOptions unfused;
  unfused.enable_fusion = false;
  auto dag_unfused = p.ToDag(unfused);
  ASSERT_TRUE(dag_unfused.ok());
  // source + a + b + c + sink = 5.
  EXPECT_EQ(dag_unfused->vertices().size(), 5u);
}

// With a one-item outbox every flat-map step overfills it; the outputs of
// the last input must still be delivered before the stage completes.
TEST(PipelineTest, FlatMapProducesMultiple) {
  for (int32_t outbox_capacity : {core::JobConfig{}.outbox_capacity, 1}) {
    SCOPED_TRACE("outbox_capacity=" + std::to_string(outbox_capacity));
    Pipeline p;
    auto counter =
        p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(1'000))
            .FlatMap<int64_t>("dup",
                              [](const int64_t& v, std::vector<int64_t>* out) {
                                out->push_back(v);
                                out->push_back(-v);
                              })
            .WriteToCountSink("count");
    core::JobConfig config;
    config.outbox_capacity = outbox_capacity;
    ASSERT_TRUE(RunPipeline(&p, {}, config).ok());
    EXPECT_EQ(counter->load(), 2'000);
  }
}

// Every event lands in exactly its (key, window) count. Besides the plain
// pipeline, a 1->3 stage runs in front of the window with a one-item
// outbox, so every step of that stage overfills it: a fused flat-map
// chain and a hash-join probe. All three outputs of each event must reach
// the window before the watermark that closes it.
TEST(PipelineTest, WindowedAggregateCountsEverything) {
  constexpr int64_t kCount = 20'000;
  constexpr int64_t kKeys = 10;
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e6;  // 1 event per us
  opt.duration = kCount * 1000;
  opt.watermark_interval = 100 * 1000;
  opt.start_time = 0;
  const WindowDef window = WindowDef::Tumbling(kNanosPerMilli);
  enum class Front { kNone, kFusedFlatMap, kHashJoinProbe };
  for (Front front : {Front::kNone, Front::kFusedFlatMap, Front::kHashJoinProbe}) {
    SCOPED_TRACE("front=" + std::to_string(static_cast<int>(front)));
    Pipeline p;
    StreamStage<int64_t> events = p.ReadFrom<int64_t>("ints", IntGen(), opt);
    if (front == Front::kFusedFlatMap) {
      events = events.FlatMap<int64_t>(
          "x3", [](const int64_t& v, std::vector<int64_t>* out) { out->assign(3, v); });
    } else if (front == Front::kHashJoinProbe) {
      // Three build records per key, so every probe matches three times.
      std::vector<std::pair<int64_t, uint64_t>> dim;
      for (int64_t key = 0; key < kKeys; ++key) {
        for (int copy = 0; copy < 3; ++copy) {
          dim.push_back({key, HashU64(static_cast<uint64_t>(key))});
        }
      }
      events = events.HashJoin<int64_t, int64_t>(
          "x3", p.ReadFromList<int64_t>("dim", dim),
          [](const int64_t& b) { return static_cast<uint64_t>(b); },
          [](const int64_t& v) { return static_cast<uint64_t>(v % kKeys); },
          [](const int64_t& v, const std::vector<int64_t>& matches,
             std::vector<int64_t>* out) { out->assign(matches.size(), v); });
    }
    auto results =
        events.GroupingKey([](const int64_t& v) { return static_cast<uint64_t>(v % kKeys); })
            .Window(window)
            .Aggregate<int64_t, int64_t>("count", core::CountingAggregate<int64_t>())
            .CollectTo("sink");
    const int64_t copies = front == Front::kNone ? 1 : 3;
    core::JobConfig config;
    if (front != Front::kNone) config.outbox_capacity = 1;
    ASSERT_TRUE(RunPipeline(&p, {}, config).ok());

    int64_t total = 0;
    std::map<std::pair<uint64_t, Nanos>, int64_t> expected, got;
    for (const auto& r : results->Snapshot()) {
      total += r.value;
      got[{r.key, r.window_end}] += r.value;
    }
    EXPECT_EQ(total, kCount * copies);
    for (int64_t v = 0; v < kCount; ++v) {
      expected[{static_cast<uint64_t>(v % kKeys), window.FrameEndFor(v * 1000)}] += copies;
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(PipelineTest, HashJoinEnrichesStream) {
  Pipeline p;
  std::vector<std::pair<int64_t, uint64_t>> dim;
  for (int64_t i = 0; i < 10; ++i) dim.push_back({i * 100, HashU64(static_cast<uint64_t>(i))});
  auto build = p.ReadFromList<int64_t>("dim", dim);

  auto collector =
      p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(1'000))
          .HashJoin<int64_t, int64_t>(
              "join", build,
              [](const int64_t& b) { return static_cast<uint64_t>(b / 100); },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 10); },
              [](const int64_t& v, const std::vector<int64_t>& matches,
                 std::vector<int64_t>* out) {
                for (int64_t m : matches) out->push_back(v + m);
              })
          .CollectTo("sink");
  ASSERT_TRUE(RunPipeline(&p).ok());
  auto values = collector->Snapshot();
  ASSERT_EQ(values.size(), 1'000u);
  // Every value v joins with exactly one build record (v % 10) * 100.
  std::multiset<int64_t> got(values.begin(), values.end());
  std::multiset<int64_t> expected;
  for (int64_t v = 0; v < 1'000; ++v) expected.insert(v + (v % 10) * 100);
  EXPECT_EQ(got, expected);
}

TEST(PipelineTest, WindowJoinMatchesWithinWindow) {
  constexpr int64_t kCount = 5'000;
  Pipeline p;
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e6;
  opt.duration = kCount * 1000;
  opt.watermark_interval = 100 * 1000;
  opt.start_time = 0;

  auto left = p.ReadFrom<int64_t>("left", IntGen(), opt);
  auto right = p.ReadFrom<int64_t>("right", IntGen(), opt);
  auto counter =
      left.WindowJoin<int64_t, int64_t>(
              "wjoin", right,
              [](const int64_t& v) { return static_cast<uint64_t>(v % 100); },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 100); },
              [](const int64_t& l, const int64_t& r) { return l + r; },
              /*window_size=*/kNanosPerMilli)
          .WriteToCountSink("count");
  ASSERT_TRUE(RunPipeline(&p).ok());
  // Each 1ms window has 1000 events per side over 100 keys => 10 per key
  // per side => 100 pairs per key per window => 10000 pairs per window,
  // 5 windows => 50000 pairs total (both sources aligned at start 0).
  EXPECT_EQ(counter->load(), 50'000);
}

TEST(PipelineTest, MapRekeyRoutesByNewKey) {
  Pipeline p;
  auto results =
      p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(6'000))
          .MapRekey<int64_t>(
              "rekey", [](const int64_t& v) { return v; },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 7); })
          .GroupingKey([](const int64_t& v) { return static_cast<uint64_t>(v % 7); })
          .Window(WindowDef::Tumbling(kNanosPerMilli))
          .Aggregate<int64_t, int64_t>("count", core::CountingAggregate<int64_t>())
          .CollectTo("sink");
  ASSERT_TRUE(RunPipeline(&p).ok());
  int64_t total = 0;
  std::set<uint64_t> keys;
  for (const auto& r : results->Snapshot()) {
    total += r.value;
    keys.insert(r.key);
  }
  EXPECT_EQ(total, 6'000);
  EXPECT_EQ(keys.size(), 7u);
}

TEST(PipelineTest, EmptyPipelineFailsValidation) {
  Pipeline p;
  EXPECT_FALSE(p.ToDag().ok());
}

}  // namespace
}  // namespace jet::pipeline
