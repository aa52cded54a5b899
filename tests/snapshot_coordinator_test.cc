// core::SnapshotCoordinator and core::StepSnapshot in virtual time: every
// call takes `now` from the test, against a real in-memory SnapshotStore.
// No threads, no sleeps: the step tests call their one tasklet themselves.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dag.h"
#include "core/execution_plan.h"
#include "core/processor.h"
#include "core/snapshot_coordinator.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "obs/metrics_registry.h"

namespace jet::core {
namespace {

constexpr imdg::JobId kJob = 7;
constexpr Nanos kInterval = 100;
constexpr Nanos kAckTimeout = 50;

class SnapshotCoordinatorTest : public ::testing::Test {
 protected:
  SnapshotCoordinatorTest() : grid_(/*backup_count=*/0), store_(&grid_) {
    EXPECT_TRUE(grid_.AddMember(0).ok());
  }

  // Persists one state entry of epoch `id`, as a participant would.
  void WriteEntry(int64_t id) {
    StateEntry entry;
    entry.key_hash = 42;
    entry.key = Bytes{1, 2, 3};
    entry.value = Bytes{4};
    ASSERT_TRUE(StoreSnapshotWriter(&store_, kJob)(id, /*vertex=*/0, /*writer_index=*/0,
                                                   std::move(entry)));
  }

  bool Live(int64_t id) const {
    auto live = store_.LiveSnapshots(kJob);
    return std::find(live.begin(), live.end(), id) != live.end();
  }

  imdg::DataGrid grid_;
  imdg::SnapshotStore store_;
  SnapshotCoordinator coordinator_{&store_, kJob, kInterval, kAckTimeout};
};

int64_t MetricValue(const obs::MetricsRegistry& registry, const std::string& name) {
  for (const auto& s : registry.Snapshot()) {
    if (s.id.name == name) return s.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST_F(SnapshotCoordinatorTest, NoEpochBeginsBeforeTheInterval) {
  coordinator_.StartAttempt(1, 1'000);
  EXPECT_EQ(coordinator_.MaybeBegin(1'000), 0);
  EXPECT_EQ(coordinator_.MaybeBegin(1'000 + kInterval - 1), 0);
  EXPECT_EQ(coordinator_.in_flight(), 0);
  EXPECT_EQ(coordinator_.next_begin(), 1'000 + kInterval);
  EXPECT_EQ(coordinator_.MaybeBegin(1'000 + kInterval), 1);
  EXPECT_EQ(coordinator_.in_flight(), 1);
}

TEST_F(SnapshotCoordinatorTest, NoSecondEpochWhileOneIsInFlight) {
  coordinator_.StartAttempt(1, 0);
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 1);
  EXPECT_EQ(coordinator_.MaybeBegin(2 * kInterval), 0);
  EXPECT_EQ(coordinator_.MaybeBegin(100 * kInterval), 0);
  EXPECT_EQ(coordinator_.in_flight(), 1);
  EXPECT_EQ(coordinator_.next_id(), 2);
}

TEST_F(SnapshotCoordinatorTest, EpochIsOverdueExactlyAtTheAckTimeout) {
  coordinator_.StartAttempt(1, 0);
  EXPECT_FALSE(coordinator_.Overdue(1'000'000));  // idle: nothing to time out
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 1);
  EXPECT_FALSE(coordinator_.Overdue(kInterval + kAckTimeout - 1));
  EXPECT_TRUE(coordinator_.Overdue(kInterval + kAckTimeout));

  SnapshotCoordinator unbounded(&store_, kJob, kInterval, /*ack_timeout=*/0);
  unbounded.StartAttempt(1, 0);
  ASSERT_EQ(unbounded.MaybeBegin(kInterval), 1);
  EXPECT_FALSE(unbounded.Overdue(kInterval + kAckTimeout));
  EXPECT_FALSE(unbounded.Overdue(int64_t{1} << 62));
}

TEST_F(SnapshotCoordinatorTest, AbortDropsTheEpochAndRestartsTheIntervalClock) {
  coordinator_.StartAttempt(1, 0);
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 1);
  WriteEntry(1);
  ASSERT_TRUE(Live(1));
  const Nanos aborted_at = kInterval + kAckTimeout;
  coordinator_.Abort(aborted_at);
  EXPECT_EQ(coordinator_.in_flight(), 0);
  EXPECT_EQ(coordinator_.aborted(), 1);
  EXPECT_EQ(coordinator_.last_committed(), 0);
  EXPECT_FALSE(Live(1));
  EXPECT_EQ(store_.aborted_count(), 1);

  EXPECT_EQ(coordinator_.MaybeBegin(aborted_at + kInterval - 1), 0);
  EXPECT_EQ(coordinator_.MaybeBegin(aborted_at + kInterval), 2);
  coordinator_.Abort(aborted_at + kInterval);
  coordinator_.Abort(aborted_at + kInterval);  // idle: no-op
  EXPECT_EQ(coordinator_.aborted(), 2);
}

TEST_F(SnapshotCoordinatorTest, CommitMovesLastCommitted) {
  obs::MetricsRegistry registry;
  coordinator_.BindMetrics(&registry);
  coordinator_.StartAttempt(1, 0);
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 1);
  WriteEntry(1);
  const Nanos committed_at = kInterval + 10;
  ASSERT_TRUE(coordinator_.Commit(committed_at).ok());
  EXPECT_EQ(coordinator_.in_flight(), 0);
  EXPECT_EQ(coordinator_.last_committed(), 1);
  EXPECT_EQ(coordinator_.taken(), 1);
  EXPECT_EQ(coordinator_.aborted(), 0);
  auto committed = store_.LastCommitted(kJob);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), std::optional<int64_t>(1));
  EXPECT_EQ(store_.EntryCount(kJob, 1), 1);
  EXPECT_EQ(MetricValue(registry, "job.snapshots_taken"), 1);
  EXPECT_EQ(MetricValue(registry, "job.last_committed_snapshot"), 1);
  EXPECT_EQ(MetricValue(registry, "snapshot.aborted"), 0);

  // The interval clock restarts at the commit.
  EXPECT_EQ(coordinator_.MaybeBegin(committed_at + kInterval - 1), 0);
  EXPECT_EQ(coordinator_.MaybeBegin(committed_at + kInterval), 2);
}

TEST_F(SnapshotCoordinatorTest, FailedCommitAbortsTheEpoch) {
  obs::MetricsRegistry registry;
  coordinator_.BindMetrics(&registry);
  coordinator_.StartAttempt(1, 0);
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 1);
  WriteEntry(1);
  // With no member left the grid rejects the commit record.
  ASSERT_TRUE(grid_.RemoveMember(0).ok());
  const Nanos failed_at = kInterval + 10;
  EXPECT_FALSE(coordinator_.Commit(failed_at).ok());
  EXPECT_EQ(coordinator_.in_flight(), 0);
  EXPECT_EQ(coordinator_.aborted(), 1);
  EXPECT_EQ(coordinator_.taken(), 0);
  EXPECT_EQ(coordinator_.last_committed(), 0);
  EXPECT_FALSE(Live(1));
  EXPECT_EQ(store_.aborted_count(), 1);
  EXPECT_EQ(MetricValue(registry, "snapshot.aborted"), 1);
  EXPECT_EQ(MetricValue(registry, "job.snapshots_taken"), 0);
  EXPECT_EQ(coordinator_.MaybeBegin(failed_at + kInterval), 2);
}

TEST_F(SnapshotCoordinatorTest, IdsAreIssuedFromTheCallersFirstId) {
  coordinator_.StartAttempt(/*first_id=*/8, 0);
  ASSERT_EQ(coordinator_.MaybeBegin(kInterval), 8);
  WriteEntry(8);
  ASSERT_TRUE(coordinator_.Commit(kInterval).ok());
  ASSERT_EQ(coordinator_.MaybeBegin(2 * kInterval), 9);

  // A new attempt forgets the epoch in flight (the runtime sweeps the
  // store) and numbers from the id it is given.
  coordinator_.StartAttempt(/*first_id=*/4, 3 * kInterval);
  EXPECT_EQ(coordinator_.in_flight(), 0);
  EXPECT_FALSE(coordinator_.Overdue(100 * kInterval));
  EXPECT_EQ(coordinator_.MaybeBegin(4 * kInterval), 4);
  EXPECT_EQ(coordinator_.last_committed(), 8);  // counters span attempts
  EXPECT_EQ(coordinator_.taken(), 1);
}

// ---------------------------------------------------------------------------
// StepSnapshot: one snapshot step of an attempt whose only participant is
// an endless source tasklet, which completes a requested epoch only when
// the test calls it.
// ---------------------------------------------------------------------------

class EndlessSourceP : public Processor {
 public:
  bool Complete() override { return false; }
};

constexpr Nanos kStepInterval = 10 * kNanosPerMilli;
constexpr Nanos kStepAckTimeout = 5 * kNanosPerMilli;
constexpr Nanos kInFlightPoll = 100 * kNanosPerMicro;

class SnapshotStepTest : public SnapshotCoordinatorTest {
 protected:
  void SetUp() override {
    dag_.AddVertex(
        "source", [](const ProcessorMeta&) { return std::make_unique<EndlessSourceP>(); },
        1);
    ASSERT_TRUE(dag_.Validate().ok());
    MemberParams params;
    params.dag = &dag_;
    params.config.guarantee = ProcessingGuarantee::kExactlyOnce;
    params.clock = &clock_;
    params.cancelled = &cancelled_;
    params.snapshot_control = &control_;
    auto plan = ExecutionPlan::Build(params, &registry_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan.value());
    ASSERT_EQ(plan_->tasklets().size(), 1u);
    ASSERT_TRUE(plan_->tasklets()[0]->Init().ok());
    participants_.Add(*plan_);
    ASSERT_EQ(participants_.tasklets().size(), 1u);
    control_.write_entry = StoreSnapshotWriter(&store_, kJob);
    steps_.StartAttempt(1, 0);
  }

  // Calls the source until it completed the requested epoch.
  void CompleteRequestedEpoch() {
    const int64_t id = control_.requested.load();
    ProcessorTasklet* source = plan_->tasklets()[0].get();
    for (int i = 0; i < 100 && source->completed_snapshot_id() < id; ++i) source->Call();
    ASSERT_EQ(source->completed_snapshot_id(), id);
  }

  Dag dag_;
  ManualClock clock_;
  std::atomic<bool> cancelled_{false};
  SnapshotControl control_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<ExecutionPlan> plan_;
  SnapshotParticipants participants_;
  SnapshotCoordinator steps_{&store_, kJob, kStepInterval, kStepAckTimeout};
};

// One attempt's timeline, one row per step: what the participant did
// before the step, and what the step left behind.
struct StepRow {
  const char* what;
  Nanos at;
  bool participant_completes;  // the source completes the requested epoch first
  int64_t requested;
  int64_t in_flight;
  int64_t committed;
  int64_t aborted;
  bool watchdog_aborted;
  Nanos next_due;
};

TEST_F(SnapshotStepTest, StepsThroughBeginCommitAndWatchdogAbort) {
  constexpr Nanos ms = kNanosPerMilli;
  const std::vector<StepRow> rows = {
      {"idle before the interval", 5 * ms, false, 0, 0, 0, 0, false, 10 * ms},
      {"epoch 1 begins at the interval", 10 * ms, false, 1, 1, 0, 0, false,
       10 * ms + kInFlightPoll},
      {"in flight, participant not done", 10 * ms + kInFlightPoll, false, 1, 1, 0, 0, false,
       10 * ms + 2 * kInFlightPoll},
      {"participant done: epoch 1 commits", 12 * ms, true, 1, 0, 1, 0, false, 22 * ms},
      {"idle until the next interval", 21 * ms, false, 1, 0, 1, 0, false, 22 * ms},
      {"epoch 2 begins", 22 * ms, false, 2, 2, 1, 0, false, 22 * ms + kInFlightPoll},
      {"not yet overdue", 27 * ms - 1, false, 2, 2, 1, 0, false, 27 * ms - 1 + kInFlightPoll},
      {"overdue: the watchdog aborts epoch 2", 27 * ms, false, 2, 0, 1, 2, true, 37 * ms},
      {"epoch 3 begins an interval after the abort", 37 * ms, false, 3, 3, 1, 2, false,
       37 * ms + kInFlightPoll},
      {"participant done: epoch 3 commits", 38 * ms, true, 3, 0, 3, 2, false, 48 * ms},
  };
  for (const StepRow& row : rows) {
    if (row.participant_completes) CompleteRequestedEpoch();
    const SnapshotStep step = StepSnapshot(&steps_, &control_, participants_, row.at);
    EXPECT_EQ(control_.requested.load(), row.requested) << row.what;
    EXPECT_EQ(steps_.in_flight(), row.in_flight) << row.what;
    EXPECT_EQ(control_.committed.load(), row.committed) << row.what;
    EXPECT_EQ(control_.aborted.load(), row.aborted) << row.what;
    EXPECT_EQ(step.watchdog_aborted, row.watchdog_aborted) << row.what;
    EXPECT_EQ(step.next_due, row.next_due) << row.what;
  }
  EXPECT_EQ(steps_.last_committed(), 3);
  EXPECT_EQ(steps_.taken(), 2);
  EXPECT_EQ(steps_.aborted(), 1);
  auto committed = store_.LastCommitted(kJob);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), std::optional<int64_t>(3));
}

// A participant that completed an epoch the watchdog already gave up on
// commits nothing: the commit gate reads the in-flight id only.
TEST_F(SnapshotStepTest, LateCompletionOfAnAbortedEpochCommitsNothing) {
  constexpr Nanos ms = kNanosPerMilli;
  ASSERT_FALSE(StepSnapshot(&steps_, &control_, participants_, 10 * ms).watchdog_aborted);
  ASSERT_EQ(steps_.in_flight(), 1);
  ASSERT_TRUE(StepSnapshot(&steps_, &control_, participants_, 15 * ms).watchdog_aborted);
  CompleteRequestedEpoch();  // epoch 1 completes after its abort
  const SnapshotStep step = StepSnapshot(&steps_, &control_, participants_, 16 * ms);
  EXPECT_EQ(steps_.in_flight(), 0);
  EXPECT_EQ(control_.committed.load(), 0);
  EXPECT_EQ(steps_.last_committed(), 0);
  EXPECT_EQ(step.next_due, 25 * ms);
}

}  // namespace
}  // namespace jet::core
