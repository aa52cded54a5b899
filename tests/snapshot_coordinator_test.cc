// core::SnapshotCoordinator in virtual time: every call takes `now` from
// the test, against a real in-memory SnapshotStore. No threads, no sleeps.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace jet::core
