// Self-tests of the benchmark's tracing.
//
// The decorator times from outside the engine, so its readings are only
// meaningful in the engine's clock domain: item timestamps come from
// WallClock::Global(), and any other WallClock has its own epoch. The
// clock-domain test runs NEXMark Q1 with its own LatencySinkP traced and
// checks that the arrival age the decorator measures at the sink matches
// the engine's LatencyRecorder.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/job.h"
#include "nexmark/queries.h"
#include "trace.h"

namespace perfbench {
namespace {

using jet::kNanosPerMilli;
using jet::kNanosPerSecond;

const std::map<std::string, Role>& Q1Roles() {
  static const auto* roles = new std::map<std::string, Role>{
      {"nexmark-source", {"nexmark", "source"}},
      {"bids+dol-to-eur", {"core", "map"}},
      {"latency-sink", {"core", "sink"}},
  };
  return *roles;
}

TEST(ClockDomainTest, SinkArrivalAgeMatchesEngineLatencyRecorder) {
  jet::nexmark::QueryConfig config;
  config.events_per_second = 50'000;
  config.duration = kNanosPerSecond / 2;
  config.watermark_interval = 5 * kNanosPerMilli;
  auto query = jet::nexmark::BuildQuery(1, config);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto planned = (*query)->pipeline.ToDag();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  TraceLog log;
  auto dag = TraceDag(*planned, Q1Roles(), &log);
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();

  jet::core::JobParams params;
  params.dag = &*dag;
  params.cooperative_threads = 2;
  auto job = jet::core::Job::Create(params);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  jet::Histogram outside;
  for (const VertexStats& v : log.instances()) {
    if (v.role.role == "sink") outside.Merge(v.arrival_age);
  }
  const jet::Histogram engine = (*query)->MergedLatency();
  ASSERT_GT(engine.count(), 0);
  ASSERT_EQ(outside.count(), engine.count());
  const int64_t engine_p50 = engine.ValueAtQuantile(0.5);
  const int64_t outside_p50 = outside.ValueAtQuantile(0.5);
  // A foreign epoch would put the outside ages seconds away (or clamp them
  // to 0). What remains is histogram resolution (1/64 per bucket, so two
  // buckets) plus the few hundred nanoseconds between the decorator's
  // clock read and the sink's.
  EXPECT_GT(outside_p50, 0);
  EXPECT_LE(std::llabs(outside_p50 - engine_p50), engine_p50 / 32 + 1'000)
      << "outside p50 " << outside_p50 << " ns, engine p50 " << engine_p50 << " ns";
}

TEST(ClockDomainTest, ForeignWallClockIsAnotherTimeLine) {
  // Why the decorator never makes its own clock: a second WallClock's
  // epoch is "now", so its readings trail the global clock's by however
  // long the process has run.
  (void)jet::WallClock::Global().Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  jet::WallClock local;
  EXPECT_GE(jet::WallClock::Global().Now() - local.Now(), 20 * kNanosPerMilli);
}

TEST(TraceDagTest, KeepsEdgesAndRejectsUnknownVertices) {
  jet::nexmark::QueryConfig config;
  auto query = jet::nexmark::BuildQuery(5, config);
  ASSERT_TRUE(query.ok());
  auto planned = (*query)->pipeline.ToDag();
  ASSERT_TRUE(planned.ok());

  TraceLog log;
  EXPECT_FALSE(TraceDag(*planned, Q1Roles(), &log).ok());

  std::map<std::string, Role> roles;
  for (const auto& v : planned->vertices()) roles[v.name] = Role{"core", v.name};
  auto traced = TraceDag(*planned, roles, &log);
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->vertices().size(), planned->vertices().size());
  ASSERT_EQ(traced->edges().size(), planned->edges().size());
  for (size_t i = 0; i < planned->edges().size(); ++i) {
    const auto& a = planned->edges()[i];
    const auto& b = traced->edges()[i];
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.source_ordinal, b.source_ordinal);
    EXPECT_EQ(a.dest_ordinal, b.dest_ordinal);
    EXPECT_EQ(a.routing, b.routing);
    EXPECT_EQ(a.distributed, b.distributed);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.queue_size, b.queue_size);
  }
  EXPECT_TRUE(traced->Validate().ok());
}

}  // namespace
}  // namespace perfbench
