#ifndef JETSIM_TESTKIT_CHAOS_H_
#define JETSIM_TESTKIT_CHAOS_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/jet_cluster.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/dag.h"
#include "core/processors_basic.h"
#include "core/processors_window.h"

namespace jet::testkit {

/// Deterministic fault-injection harness for the real engine (§4.4, §7.6):
/// scripted or seeded-random timelines of member kills, joins, link
/// partitions, delay spikes and GC-style stalls execute against a live
/// jet::cluster, and the recovery protocol must keep results exactly-once.
/// Every timeline derives purely from its seed, so a failing run replays
/// from the printed seed alone.

enum class ChaosEventType {
  kKillNode,     // fail-stop member `a`
  kAddNode,      // join a fresh member
  kPartition,    // block both directions between `a` and `b`
  kHeal,         // unblock (a, b)
  kDelaySpike,   // add `latency` to both directions of (a, b)
  kClearLink,    // remove the delay spike on (a, b)
  kStallWorker,  // freeze member `a`'s workers for `duration` (GC pause)
};

struct ChaosEvent {
  Nanos at = 0;  // offset from timeline start
  ChaosEventType type = ChaosEventType::kKillNode;
  int32_t a = -1;      // member id / link endpoint
  int32_t b = -1;      // second link endpoint (partition/delay only)
  Nanos duration = 0;  // stall length (kStallWorker)
  Nanos latency = 0;   // added latency (kDelaySpike)

  std::string ToString() const;
};

/// Knobs of the seeded timeline generator.
struct ChaosTimelineOptions {
  /// No event fires before this offset (lets the job commit a snapshot).
  Nanos start_after = 250 * kNanosPerMilli;
  /// Last generated event fires before this offset.
  Nanos horizon = 1'400 * kNanosPerMilli;
  int32_t initial_nodes = 3;
  /// Kills never reduce the cluster below this.
  int32_t min_alive = 2;
  /// Number of primary events to generate (heals/clears are added on top).
  int32_t events = 4;
  int32_t max_kills = 1;
  bool allow_join = true;
  bool allow_partition = true;
  bool allow_delay = true;
  bool allow_stall = true;
};

/// Generates a valid fault timeline from `seed` alone: kills respect
/// `min_alive`, joined members get the ids JetCluster will actually assign,
/// every partition gets a matching heal, every delay spike a matching
/// clear, and no two link faults overlap on one pair. Same seed + options
/// => identical timeline, always.
std::vector<ChaosEvent> GenerateTimeline(uint64_t seed, const ChaosTimelineOptions& options);

std::string TimelineToString(const std::vector<ChaosEvent>& timeline);

/// Executes a timeline against a live cluster. Each event is applied at
/// its wall-clock offset from Run()'s start. The scheduler only injects
/// faults: a kill is JetCluster::CrashNode (no membership change — the
/// control plane must detect the death itself) and a heal is
/// Network::Heal (the control plane must resume or restart jobs itself).
class ChaosScheduler {
 public:
  ChaosScheduler(cluster::JetCluster* cluster, std::vector<ChaosEvent> timeline);

  /// Blocks until every event has been applied. Returns the first error.
  Status Run();

  /// Human-readable record of what was applied (for failure messages).
  const std::vector<std::string>& log() const { return log_; }

  /// Grid partition-table version sampled after each event; must be
  /// non-decreasing (version monotonicity across kills/joins/heals).
  const std::vector<int64_t>& table_versions() const { return table_versions_; }

 private:
  Status Apply(const ChaosEvent& event);

  cluster::JetCluster* cluster_;
  std::vector<ChaosEvent> timeline_;
  std::vector<std::string> log_;
  std::vector<int64_t> table_versions_;
};

/// Standard bring-up/teardown and result verification for chaos tests: an
/// in-process cluster running one snapshot-enabled NEXMark-style job (Q5's
/// shape — windowed counts per auction key over a distributed partitioned
/// edge), with exactly-once, delivery-accounting, and grid-invariant
/// checks at the end.
struct FixtureOptions {
  int32_t initial_nodes = 3;
  int32_t threads_per_node = 1;
  int32_t backup_count = 1;
  double events_per_second = 30'000;
  Nanos source_duration = 1'200 * kNanosPerMilli;
  int64_t key_count = 16;
  Nanos window_size = 50 * kNanosPerMilli;
  Nanos snapshot_interval = 80 * kNanosPerMilli;
  imdg::JobId job_id = 1;
  /// Round-trip every exchange frame through the wire codec even though
  /// the hops are in-process (JobConfig::serialize_exchange_frames): the
  /// simulated cluster pays the real serialization cost.
  bool serialize_exchange_frames = false;
  /// Forwarded into ClusterConfig::supervisor (the control plane's
  /// thresholds).
  cluster::SupervisorOptions supervisor;
};

class ClusterFixture {
 public:
  explicit ClusterFixture(FixtureOptions options = {});

  cluster::JetCluster& cluster() { return *cluster_; }
  net::Network& network() { return cluster_->network(); }
  cluster::ClusterJob* job() { return job_; }

  /// Builds and submits the standard exactly-once windowed-count job.
  Status SubmitWindowedJob();

  /// Waits until snapshot `min_id` has committed.
  bool WaitForCommittedSnapshot(int64_t min_id, Nanos timeout);

  /// Joins the job (blocks through any in-flight recoveries).
  Status JoinJob();

  /// Events the source is expected to emit over its full lifetime.
  int64_t expected_total() const;

  /// Sums the distinct (key, window) results; duplicate emissions must
  /// agree with the first occurrence or an error is returned.
  Result<int64_t> DistinctTotal() const;

  /// DistinctTotal == expected_total (the exactly-once assertion).
  Status VerifyExactlyOnce() const;

  /// Shuts the network down and checks sent == delivered + dropped.
  Status VerifyDeliveryAccounting();

  /// Partition-table Validate() + snapshot-map replica consistency (no
  /// lost IMDG backups).
  Status VerifyClusterInvariants() const;

 private:
  FixtureOptions options_;
  std::unique_ptr<cluster::JetCluster> cluster_;
  core::Dag dag_;
  std::shared_ptr<core::SyncCollector<core::WindowResult<int64_t>>> collector_;
  cluster::ClusterJob* job_ = nullptr;
};

}  // namespace jet::testkit

#endif  // JETSIM_TESTKIT_CHAOS_H_
