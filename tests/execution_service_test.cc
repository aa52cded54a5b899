#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/execution_service.h"
#include "core/job.h"
#include "core/processors_basic.h"

namespace jet::core {
namespace {

// Minimal scripted tasklet.
class ScriptedTasklet final : public Tasklet {
 public:
  ScriptedTasklet(std::string name, int64_t work_calls, Status init = Status::OK(),
                  bool cooperative = true)
      : name_(std::move(name)),
        work_calls_(work_calls),
        init_(init),
        cooperative_(cooperative) {}

  Status Init() override {
    init_called_.store(true);
    return init_;
  }

  TaskletProgress Call() override {
    int64_t done_so_far = calls_.fetch_add(1) + 1;
    return {true, done_so_far >= work_calls_};
  }

  bool IsCooperative() const override { return cooperative_; }
  const std::string& name() const override { return name_; }

  int64_t calls() const { return calls_.load(); }
  bool init_called() const { return init_called_.load(); }

 private:
  std::string name_;
  int64_t work_calls_;
  Status init_;
  bool cooperative_;
  std::atomic<int64_t> calls_{0};
  std::atomic<bool> init_called_{false};
};

TEST(ExecutionServiceTest, RunsAllTaskletsToCompletion) {
  ScriptedTasklet a("a", 100), b("b", 50), c("c", 1);
  ExecutionService service(2);
  ASSERT_TRUE(service.Start({&a, &b, &c}).ok());
  ASSERT_TRUE(service.AwaitCompletion().ok());
  EXPECT_TRUE(service.IsComplete());
  EXPECT_EQ(a.calls(), 100);
  EXPECT_EQ(b.calls(), 50);
  EXPECT_EQ(c.calls(), 1);
}

TEST(ExecutionServiceTest, InitErrorPropagatesAndCancels) {
  ScriptedTasklet good("good", 1'000'000'000);  // would run a long time
  ScriptedTasklet bad("bad", 10, InternalError("boom"));
  ExecutionService service(2);
  ASSERT_TRUE(service.Start({&good, &bad}).ok());
  Status s = service.AwaitCompletion();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ExecutionServiceTest, CancelStopsLongRunningTasklets) {
  ScriptedTasklet endless("endless", int64_t{1} << 60);
  ExecutionService service(1);
  ASSERT_TRUE(service.Start({&endless}).ok());
  service.Cancel();
  ASSERT_TRUE(service.AwaitCompletion().ok());
  EXPECT_TRUE(service.IsComplete());
}

TEST(ExecutionServiceTest, NonCooperativeGetsDedicatedThread) {
  // One cooperative worker + a non-cooperative tasklet: both finish even
  // though the non-cooperative one would monopolize a shared thread.
  ScriptedTasklet coop("coop", 1000);
  ScriptedTasklet blocking("blocking", 1000, Status::OK(), /*cooperative=*/false);
  ExecutionService service(1);
  ASSERT_TRUE(service.Start({&coop, &blocking}).ok());
  ASSERT_TRUE(service.AwaitCompletion().ok());
  EXPECT_EQ(coop.calls(), 1000);
  EXPECT_EQ(blocking.calls(), 1000);
}

TEST(ExecutionServiceTest, DoubleStartRejected) {
  ScriptedTasklet t("t", 1);
  ExecutionService service(1);
  ASSERT_TRUE(service.Start({&t}).ok());
  EXPECT_FALSE(service.Start({&t}).ok());
  (void)service.AwaitCompletion();
}

TEST(ExecutionServiceTest, EmptyTaskletListCompletesImmediately) {
  ExecutionService service(2);
  ASSERT_TRUE(service.Start({}).ok());
  ASSERT_TRUE(service.AwaitCompletion().ok());
  EXPECT_TRUE(service.IsComplete());
}

// Regression: the rebalance thread slept out its whole interval after the
// last cooperative tasklet finished, and Join() waited for it. With a 10 s
// interval, a job that is done in milliseconds must still join promptly.
TEST(ExecutionServiceTest, JoinDoesNotWaitOutTheRebalanceInterval) {
  static ManualClock clock(int64_t{1} << 60);
  auto counter = std::make_shared<std::atomic<int64_t>>(0);
  Dag dag;
  VertexId source = dag.AddVertex(
      "source",
      [](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;
        opt.duration = 1000;
        opt.start_time = 0;
        return std::make_unique<GeneratorSourceP<int64_t>>(
            [](int64_t seq) { return std::make_pair(seq, static_cast<uint64_t>(seq)); },
            opt);
      },
      2);
  VertexId sink = dag.AddVertex(
      "sink",
      [counter](const ProcessorMeta&) -> std::unique_ptr<Processor> {
        return std::make_unique<CountSinkP<int64_t>>(counter);
      },
      2);
  dag.AddEdge(source, sink);
  JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  params.config.rebalance_interval = 10 * kNanosPerSecond;
  auto job = Job::Create(params);
  ASSERT_TRUE(job.ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(counter->load(), 1000);
  EXPECT_LT(took, std::chrono::seconds(2));
}

}  // namespace
}  // namespace jet::core
