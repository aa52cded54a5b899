#ifndef JETSIM_CLUSTER_HEALTH_MONITOR_H_
#define JETSIM_CLUSTER_HEALTH_MONITOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "core/restart_policy.h"
#include "net/network.h"

namespace jet::cluster {

/// Point-in-time cluster health as seen from heartbeat freshness.
struct HealthReport {
  /// Members whose heartbeats are stale to *every* peer: either the process
  /// died or the member is cut off from the whole cluster.
  std::vector<int32_t> down;
  /// Members with a heartbeat suspect to some peer (core::JudgeHeartbeat)
  /// and not down. A fresh heartbeat refutes the suspicion.
  std::vector<int32_t> suspected;
  /// Unordered pairs (a < b) of non-down members that cannot hear each
  /// other (heartbeats dead in either direction):
  /// the signature of a link partition rather than a process death.
  std::vector<std::pair<int32_t, int32_t>> broken_links;

  bool operator==(const HealthReport& other) const {
    return down == other.down && suspected == other.suspected &&
           broken_links == other.broken_links;
  }
  bool operator!=(const HealthReport& other) const { return !(*this == other); }

  std::string ToString() const;
};

/// The quorum rule over `members` (the current membership): the largest
/// connected component of up members over unbroken links, with
/// broken-link endpoints greedily dropped (most broken links first, ties
/// to the higher id) until no broken pair is left; it is a quorum only as
/// a strict majority of `members`. nullopt = no quorum.
std::optional<std::vector<int32_t>> QuorumSubset(const std::vector<int32_t>& members,
                                                 const HealthReport& report);

/// The restart gate: no member of `members` is down or suspected, and no
/// link between two of them is broken.
bool AllHealthy(const std::vector<int32_t>& members, const HealthReport& report);

/// Full-mesh heartbeat health monitor, without a thread of its own: the
/// owner's control loop calls Tick(now), which sends every registered
/// member's heartbeat to every *other* member over a channel tagged
/// (member -> observer), so testkit link faults starve exactly the
/// observations that a real partition would, and folds the per-link
/// freshness matrix into a HealthReport, which it returns when it changed.
///
/// This is the detection layer of the self-healing control plane: the
/// mesh view distinguishes "process down" (stale to all peers) from "link
/// down" (stale to some), which is what quorum decisions need. A member
/// whose heartbeats return — e.g. after a partition heals — simply leaves
/// the `down` set; nothing is latched.
///
/// The loop that sends the heartbeats also judges them, so it does not
/// blame members for its own silence: when a tick begins more than a
/// heartbeat interval after the one before it (the loop was blocked, say
/// by a restart), every link is credited the excess, as if its last
/// heartbeat had come that much later: staleness from before the stall
/// survives it, so a dead member stays down and a cut link stays broken.
class ClusterHealthMonitor {
 public:
  /// Each link's heartbeat age is judged by core::JudgeHeartbeat against
  /// `options`, in the time of `clock` (nullptr = the global wall clock),
  /// which Tick's `now` must share.
  ClusterHealthMonitor(net::Network* network, core::LivenessOptions options,
                       const Clock* clock = nullptr);

  ClusterHealthMonitor(const ClusterHealthMonitor&) = delete;
  ClusterHealthMonitor& operator=(const ClusterHealthMonitor&) = delete;

  /// Registers a member; its heartbeats go out from the next Tick.
  /// Re-registering a member whose heartbeats were stopped resumes them
  /// with fresh link state (a rejoin); re-registering a live member is a
  /// no-op. Every (member, peer) link in both directions starts out fresh.
  void AddMember(int32_t member) JET_EXCLUDES(mutex_);

  /// Simulates the member's process dying: its outbound heartbeats cease
  /// and every peer's observation of it goes stale. The member stays
  /// registered — a dead process never refutes, so it stays `down`.
  void StopHeartbeats(int32_t member) JET_EXCLUDES(mutex_);

  struct TickResult {
    Nanos next_due = 0;                   ///< when the next tick is due
    std::optional<HealthReport> changed;  ///< a fold's report, if it changed
  };

  /// One tick at `now`: sends the heartbeats that are due (every
  /// `heartbeat_interval`, all members in one batch) and, every half
  /// interval, folds the matrix into a report. One thread ticks at a time.
  TickResult Tick(Nanos now) JET_EXCLUDES(mutex_);

  /// The report as of now (recomputed on demand).
  HealthReport Snapshot() const JET_EXCLUDES(mutex_);

  /// Members suspected somewhere in the mesh as of the latest fold.
  std::vector<int32_t> SuspectedMembers() const JET_EXCLUDES(mutex_);

  /// Times a suspicion was withdrawn because a fresh heartbeat arrived.
  int64_t refutation_count() const JET_EXCLUDES(mutex_);

 private:
  struct Link {
    net::ChannelId channel = 0;
    // Written by the network delivery thread, read under mutex_.
    std::shared_ptr<std::atomic<Nanos>> last_rx;
  };

  // Folds the freshness matrix into a report.
  HealthReport Evaluate(Nanos now) const JET_REQUIRES(mutex_);

  net::Network* network_;
  core::LivenessOptions options_;
  const Clock* clock_;

  mutable jet::Mutex mutex_;
  // Registered members -> whether they still heartbeat.
  std::map<int32_t, bool> beating_ JET_GUARDED_BY(mutex_);
  // (from, to)
  std::map<std::pair<int32_t, int32_t>, Link> links_ JET_GUARDED_BY(mutex_);
  Nanos last_tick_ JET_GUARDED_BY(mutex_);
  Nanos next_beat_ JET_GUARDED_BY(mutex_) = 0;
  Nanos next_fold_ JET_GUARDED_BY(mutex_) = 0;
  HealthReport report_ JET_GUARDED_BY(mutex_);
  int64_t refutations_ JET_GUARDED_BY(mutex_) = 0;
};

}  // namespace jet::cluster

#endif  // JETSIM_CLUSTER_HEALTH_MONITOR_H_
