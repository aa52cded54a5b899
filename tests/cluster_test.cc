#include <dirent.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/jet_cluster.h"
#include "core/job.h"
#include "core/processors_basic.h"
#include "core/processors_window.h"
#include "testkit/wait.h"

namespace jet::cluster {
namespace {

using core::Dag;
using core::GeneratorSourceP;
using core::ProcessorMeta;
using core::RoutingPolicy;
using core::VertexId;
using core::WindowResult;

struct Event {
  uint64_t key = 0;
  int64_t seq = 0;
};

// source(1/node) -> [distributed partitioned] -> collect sink(1/node)
struct SimpleJobParts {
  Dag dag;
  std::shared_ptr<core::SyncCollector<int64_t>> collector;
};

std::unique_ptr<SimpleJobParts> MakeDistributedPassthrough(double rate, Nanos duration) {
  auto parts = std::make_unique<SimpleJobParts>();
  parts->collector = std::make_shared<core::SyncCollector<int64_t>>();
  VertexId source = parts->dag.AddVertex(
      "source",
      [rate, duration](const ProcessorMeta&) -> std::unique_ptr<core::Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = rate;
        opt.duration = duration;
        opt.watermark_interval = 10 * kNanosPerMilli;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) { return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq))); },
            opt);
      },
      1);
  VertexId sink = parts->dag.AddVertex(
      "sink",
      [collector = parts->collector](const ProcessorMeta&) {
        return std::make_unique<core::CollectSinkP<int64_t>>(collector);
      },
      1);
  auto& edge = parts->dag.AddEdge(source, sink);
  edge.routing = RoutingPolicy::kPartitioned;
  edge.distributed = true;
  return parts;
}

struct WindowedJobParts {
  Dag dag;
  std::shared_ptr<core::SyncCollector<WindowResult<int64_t>>> collector;
};

std::unique_ptr<WindowedJobParts> MakeDistributedWindowedCount(double rate,
                                                               Nanos duration,
                                                               int64_t keys) {
  auto parts = std::make_unique<WindowedJobParts>();
  parts->collector = std::make_shared<core::SyncCollector<WindowResult<int64_t>>>();
  core::WindowDef window = core::WindowDef::Tumbling(50 * kNanosPerMilli);
  auto op = core::CountingAggregate<Event>();

  VertexId source = parts->dag.AddVertex(
      "source",
      [rate, duration, keys](const ProcessorMeta&) -> std::unique_ptr<core::Processor> {
        GeneratorSourceP<Event>::Options opt;
        opt.events_per_second = rate;
        opt.duration = duration;
        opt.watermark_interval = 5 * kNanosPerMilli;
        return std::make_unique<GeneratorSourceP<Event>>(
            [keys](int64_t seq) {
              Event e{static_cast<uint64_t>(seq % keys), seq};
              return std::make_pair(e, HashU64(e.key));
            },
            opt);
      },
      1);
  VertexId accumulate = parts->dag.AddVertex(
      "accumulate",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<core::AccumulateByFrameP<Event, int64_t, int64_t>>(
            op, [](const Event& e) { return e.key; }, window);
      },
      1);
  VertexId combine = parts->dag.AddVertex(
      "combine",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<core::CombineFramesP<Event, int64_t, int64_t>>(op,
                                                                               window);
      },
      1);
  VertexId sink = parts->dag.AddVertex(
      "sink",
      [collector = parts->collector](const ProcessorMeta&) {
        return std::make_unique<core::CollectSinkP<WindowResult<int64_t>>>(collector);
      },
      1);
  parts->dag.AddEdge(source, accumulate);
  auto& e = parts->dag.AddEdge(accumulate, combine);
  e.routing = RoutingPolicy::kPartitioned;
  e.distributed = true;
  parts->dag.AddEdge(combine, sink);
  return parts;
}

TEST(ClusterTest, DistributedEdgeDeliversEverythingExactlyOnce) {
  ClusterConfig config;
  config.initial_nodes = 3;
  config.threads_per_node = 1;
  JetCluster cluster(config);

  constexpr double kRate = 100'000;
  constexpr Nanos kDuration = 300 * kNanosPerMilli;
  auto parts = MakeDistributedPassthrough(kRate, kDuration);

  auto job = cluster.SubmitJob(&parts->dag, core::JobConfig{}, 1);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Join().ok());

  auto values = parts->collector->Snapshot();
  const auto kExpected = static_cast<int64_t>(kRate * (kDuration / 1e9));
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(values.size(), static_cast<size_t>(kExpected));
  EXPECT_EQ(unique.size(), static_cast<size_t>(kExpected));
}

TEST(ClusterTest, WindowedAggregationAcrossNodes) {
  ClusterConfig config;
  config.initial_nodes = 3;
  config.threads_per_node = 1;
  JetCluster cluster(config);

  constexpr double kRate = 100'000;
  constexpr Nanos kDuration = 400 * kNanosPerMilli;
  auto parts = MakeDistributedWindowedCount(kRate, kDuration, 16);

  auto job = cluster.SubmitJob(&parts->dag, core::JobConfig{}, 2);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Join().ok());

  int64_t total = 0;
  for (const auto& r : parts->collector->Snapshot()) total += r.value;
  EXPECT_EQ(total, static_cast<int64_t>(kRate * (kDuration / 1e9)));
}

TEST(ClusterTest, ExactlyOnceSurvivesNodeFailure) {
  ClusterConfig config;
  config.initial_nodes = 3;
  config.threads_per_node = 1;
  JetCluster cluster(config);

  constexpr double kRate = 50'000;
  constexpr Nanos kDuration = 2'000 * kNanosPerMilli;
  const auto kExpected = static_cast<int64_t>(kRate * (kDuration / 1e9));
  auto parts = MakeDistributedWindowedCount(kRate, kDuration, 16);

  core::JobConfig jc;
  jc.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  jc.snapshot_interval = 100 * kNanosPerMilli;
  auto job = cluster.SubmitJob(&parts->dag, jc, 3);
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  // Wait for a committed snapshot, then kill a member.
  ASSERT_TRUE(testkit::WaitUntil(
      [&job]() { return (*job)->last_committed_snapshot() >= 2; },
      5 * kNanosPerSecond))
      << "no snapshot committed in time";
  ASSERT_TRUE(cluster.KillNode(1).ok());
  EXPECT_EQ(cluster.AliveNodes().size(), 2u);

  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_GE((*job)->attempts_started(), 2);

  // Exactly-once: duplicated window emissions agree; distinct windows
  // account for every event exactly once.
  std::map<std::pair<uint64_t, Nanos>, int64_t> distinct;
  for (const auto& r : parts->collector->Snapshot()) {
    auto it = distinct.find({r.key, r.window_end});
    if (it == distinct.end()) {
      distinct[{r.key, r.window_end}] = r.value;
    } else {
      EXPECT_EQ(it->second, r.value) << "conflicting duplicate window result";
    }
  }
  int64_t total = 0;
  for (const auto& [kw, v] : distinct) total += v;
  EXPECT_EQ(total, kExpected);
}

TEST(ClusterTest, ExactlyOnceSurvivesScaleOut) {
  ClusterConfig config;
  config.initial_nodes = 2;
  config.threads_per_node = 1;
  JetCluster cluster(config);

  constexpr double kRate = 50'000;
  constexpr Nanos kDuration = 2'000 * kNanosPerMilli;
  const auto kExpected = static_cast<int64_t>(kRate * (kDuration / 1e9));
  auto parts = MakeDistributedWindowedCount(kRate, kDuration, 16);

  core::JobConfig jc;
  jc.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  jc.snapshot_interval = 100 * kNanosPerMilli;
  auto job = cluster.SubmitJob(&parts->dag, jc, 4);
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  ASSERT_TRUE(testkit::WaitUntil(
      [&job]() { return (*job)->last_committed_snapshot() >= 2; },
      5 * kNanosPerSecond));
  auto added = cluster.AddNode();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(cluster.AliveNodes().size(), 3u);

  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_GE((*job)->attempts_started(), 2);

  std::map<std::pair<uint64_t, Nanos>, int64_t> distinct;
  for (const auto& r : parts->collector->Snapshot()) {
    auto it = distinct.find({r.key, r.window_end});
    if (it == distinct.end()) {
      distinct[{r.key, r.window_end}] = r.value;
    } else {
      EXPECT_EQ(it->second, r.value);
    }
  }
  int64_t total = 0;
  for (const auto& [kw, v] : distinct) total += v;
  EXPECT_EQ(total, kExpected);
}

TEST(ClusterTest, KillUnknownNodeFails) {
  ClusterConfig config;
  config.initial_nodes = 2;
  config.threads_per_node = 1;
  JetCluster cluster(config);
  EXPECT_FALSE(cluster.KillNode(99).ok());
}

// Threads of this process: the entries of /proc/self/task.
int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int threads = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  closedir(dir);
  return threads;
}

// Besides its members' workers, a cluster runs two threads: the network's
// delivery thread and the control loop, which heartbeats, judges health,
// reconciles restarts and steps every attempt's snapshots. A restart adds
// none.
TEST(ClusterTest, ControlPlaneRunsOnOneLoopBesidesTheDeliveryThread) {
  // ThreadSanitizer starts a helper thread of its own with the first thread
  // a process creates: have it running before the first count.
  std::thread([]() {}).join();
  const int before = CountThreads();
  ASSERT_GT(before, 0);
  ClusterConfig config;
  config.initial_nodes = 2;
  config.threads_per_node = 1;
  JetCluster cluster(config);
  auto parts = MakeDistributedPassthrough(/*rate=*/2'000, 60 * kNanosPerSecond);
  core::JobConfig job_config;
  job_config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  job_config.snapshot_interval = 20 * kNanosPerMilli;
  auto job = cluster.SubmitJob(&parts->dag, job_config, 1);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE(testkit::WaitUntil([&]() { return (*job)->last_committed_snapshot() >= 1; },
                                 10 * kNanosPerSecond));
  const int workers = config.initial_nodes * config.threads_per_node;
  const int non_workers = CountThreads() - before - workers;
  EXPECT_EQ(non_workers, 2);

  // A scale-out restarts the job onto one more member's worker.
  ASSERT_TRUE(cluster.AddNode().ok());
  ASSERT_TRUE(testkit::WaitUntil([&]() { return (*job)->attempts_started() == 2; },
                                 10 * kNanosPerSecond));
  const int64_t restored = (*job)->last_committed_snapshot();
  ASSERT_TRUE(testkit::WaitUntil(
      [&]() { return (*job)->last_committed_snapshot() > restored; }, 10 * kNanosPerSecond));
  EXPECT_EQ(CountThreads() - before - workers - config.threads_per_node, non_workers);
  (*job)->Cancel();
  (void)(*job)->Join();
}

// No snapshot step reaches an attempt once it is stopped. A partition of
// the 2 members leaves no quorum: the dropped frames fail the attempt, at
// most one charge per partition, and the job is suspended until the link
// heals. Meanwhile the last committed
// epoch holds still, so the restart restores it and the new attempt
// numbers its epochs after it, never reusing a committed id. The watchdog
// stays quiet too: a step of the stopped attempt, whose tasklets can
// complete no epoch, would abort one within `snapshot_ack_timeout`.
TEST(ClusterTest, NoSnapshotStepAfterAnAttemptStopped) {
  ClusterConfig config;
  config.initial_nodes = 2;
  config.threads_per_node = 1;
  JetCluster cluster(config);
  auto parts = MakeDistributedPassthrough(/*rate=*/2'000, 60 * kNanosPerSecond);
  core::JobConfig job_config;
  job_config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  job_config.snapshot_interval = kNanosPerMilli;
  job_config.snapshot_ack_timeout = 40 * kNanosPerMilli;
  auto job = cluster.SubmitJob(&parts->dag, job_config, 1);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ClusterJob* j = *job;
  core::RestartPolicy* policy = j->supervisor();
  net::Network& network = cluster.network();
  for (int restart = 0; restart < 5; ++restart) {
    const int64_t before = j->last_committed_snapshot();
    ASSERT_TRUE(testkit::WaitUntil([&]() { return j->last_committed_snapshot() > before; },
                                   10 * kNanosPerSecond));
    const int32_t budget = policy->budget_remaining();
    network.Partition(0, 1);
    ASSERT_TRUE(testkit::WaitUntil(
        [&]() { return policy->state() == core::JobState::kSuspended; },
        10 * kNanosPerSecond));
    const int64_t committed = j->last_committed_snapshot();
    const int64_t aborted = j->snapshots_aborted();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(j->last_committed_snapshot(), committed);
    EXPECT_EQ(j->snapshots_aborted(), aborted);
    auto stored = cluster.snapshot_store().LastCommitted(1);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(stored->value_or(0), committed);
    network.Heal(0, 1);
    ASSERT_TRUE(testkit::WaitUntil(
        [&]() { return policy->state() == core::JobState::kRunning; }, 10 * kNanosPerSecond));
    EXPECT_GE(policy->budget_remaining(), budget - 1) << "partition " << restart;
  }
  j->Cancel();
  ASSERT_TRUE(j->Join().ok());
  const int64_t committed = j->last_committed_snapshot();
  const int64_t aborted = j->snapshots_aborted();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(j->last_committed_snapshot(), committed);
  EXPECT_EQ(j->snapshots_aborted(), aborted);
}

// The control loop never waits on the membership lock: while KillNode holds
// it across the failure-detection delay, heartbeats keep going out (the
// cluster runs no job, so every message on the network is a heartbeat).
TEST(ClusterTest, HeartbeatsGoOnWhileKillNodeHoldsTheMembershipLock) {
  ClusterConfig config;
  config.initial_nodes = 3;
  config.threads_per_node = 1;
  config.failure_detection_delay = 400 * kNanosPerMilli;
  JetCluster cluster(config);
  std::thread killer([&cluster]() { EXPECT_TRUE(cluster.KillNode(2).ok()); });
  // Sample well inside KillNode's delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int64_t sent = cluster.network().sent_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(cluster.network().sent_count(), sent);
  killer.join();
  EXPECT_EQ(cluster.AliveNodes(), (std::vector<int32_t>{0, 1}));
}

// A refused kill of the last member must leave the membership untouched:
// the node keeps running, stays in AliveNodes() and still runs jobs.
TEST(ClusterTest, KillLastNodeIsRefusedAndChangesNothing) {
  ClusterConfig config;
  config.initial_nodes = 1;
  config.threads_per_node = 1;
  JetCluster cluster(config);
  EXPECT_EQ(cluster.KillNode(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.AliveNodes(), std::vector<int32_t>{0});

  constexpr double kRate = 50'000;
  constexpr Nanos kDuration = 100 * kNanosPerMilli;
  auto parts = MakeDistributedPassthrough(kRate, kDuration);
  auto job = cluster.SubmitJob(&parts->dag, core::JobConfig{}, 1);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(parts->collector->Snapshot().size(),
            static_cast<size_t>(kRate * (kDuration / 1e9)));
}

// ---------------------------------------------------------------------------
// core::MemberExecution: one member of a 2-node execution over an in-process
// exchange registry, built the way ClusterJob builds each of its members.
// ---------------------------------------------------------------------------

class MemberExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parts_ = MakeDistributedPassthrough(/*rate=*/10'000, 20 * kNanosPerMilli);
    ASSERT_TRUE(grid_.AddMember(0).ok());
    for (int32_t i = 0; i < 2; ++i) {
      core::MemberParams params;
      params.dag = &parts_->dag;
      params.node = core::NodeInfo{i, 2};
      params.config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
      params.threads = 1;
      params.clock = &clock_;
      params.cancelled = &cancelled_;
      params.snapshot_control = &control_;
      net::NetworkEdgeFactory factory(&exchange_, params);
      params.remote_edges = &factory;
      params.tags.job = 1;
      params.tags.member = i;
      params.metrics_grid = &grid_;
      auto member = core::MemberExecution::Create(params);
      ASSERT_TRUE(member.ok()) << member.status().ToString();
      members_.push_back(std::move(member.value()));
    }
  }

  WallClock clock_;
  net::Network network_;
  net::ExchangeRegistry exchange_{&network_};
  imdg::DataGrid grid_{/*backup_count=*/0};
  std::atomic<bool> cancelled_{false};
  core::SnapshotControl control_;
  std::unique_ptr<SimpleJobParts> parts_;
  std::vector<std::unique_ptr<core::MemberExecution>> members_;
};

// ExecutionService::Start places tasklets on workers round-robin in the
// order it gets them, so the member must hand them over as: processor
// tasklets, exchange tasklets (senders, then receivers), the collector.
TEST_F(MemberExecutionTest, HandsPlanThenExchangeThenCollectorToTheService) {
  for (size_t n = 0; n < members_.size(); ++n) {
    const std::string self = std::to_string(n);
    const std::string peer = std::to_string(1 - n);
    std::vector<std::string> names;
    for (core::Tasklet* t : members_[n]->Tasklets()) names.push_back(t->name());
    EXPECT_EQ(names, (std::vector<std::string>{"source#" + self, "sink#" + self,
                                               "sender:e0->n" + peer + "@n" + self,
                                               "receiver:e0<-n" + peer + "@n" + self,
                                               "metrics-collector/job-1/member-" + self}));
  }
}

// The plan owns the exchange tasklets, so the snapshot commit gate built
// from it counts the senders. Receivers are in the plan too but take no
// part: they forward barriers that arrive on the wire and never align or
// persist one (ProcessorTasklet::ParticipatesInSnapshots).
TEST_F(MemberExecutionTest, SnapshotParticipantsIncludeTheExchangeSenders) {
  for (size_t n = 0; n < members_.size(); ++n) {
    const std::string self = std::to_string(n);
    const std::string peer = std::to_string(1 - n);
    core::SnapshotParticipants participants;
    participants.Add(*members_[n]->plan());
    std::vector<std::string> names;
    for (const core::ProcessorTasklet* t : participants.tasklets()) {
      names.push_back(t->name());
    }
    EXPECT_EQ(names, (std::vector<std::string>{"source#" + self, "sink#" + self,
                                               "sender:e0->n" + peer + "@n" + self}));
    EXPECT_EQ(members_[n]->plan()->tasklets().back()->name(),
              "receiver:e0<-n" + peer + "@n" + self);
  }
}

// Both members run to completion over the exchange, and every event
// reaches exactly one sink.
TEST_F(MemberExecutionTest, TwoMembersRunTheJobOverTheExchange) {
  for (const auto& member : members_) ASSERT_TRUE(member->Start().ok());
  for (const auto& member : members_) {
    ASSERT_TRUE(member->service()->AwaitCompletion().ok());
  }
  auto values = parts_->collector->Snapshot();
  std::set<int64_t> unique(values.begin(), values.end());
  EXPECT_EQ(values.size(), 200u);  // 10k ev/s for 20 ms, sharded over the sources
  EXPECT_EQ(unique.size(), values.size());
}

}  // namespace
}  // namespace jet::cluster
