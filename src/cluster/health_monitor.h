#ifndef JETSIM_CLUSTER_HEALTH_MONITOR_H_
#define JETSIM_CLUSTER_HEALTH_MONITOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
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

/// Full-mesh heartbeat health monitor: every registered member runs a pump
/// thread that periodically heartbeats every *other* member over a channel
/// tagged (member -> observer), so testkit link faults starve exactly the
/// observations that a real partition would. A monitor thread folds the
/// per-link freshness matrix into a HealthReport and invokes `on_change`
/// (from the monitor thread) whenever the report changes.
///
/// This is the detection layer of the self-healing control plane: the
/// mesh view distinguishes "process down" (stale to all peers) from "link
/// down" (stale to some), which is what quorum decisions need. A member
/// whose heartbeats return — e.g. after a partition heals — simply leaves
/// the `down` set; nothing is latched.
class ClusterHealthMonitor {
 public:
  /// Each link's heartbeat age is judged by core::JudgeHeartbeat against
  /// `options`. `on_change(report)` runs on the monitor thread whenever the
  /// folded report changes; it must not destroy the monitor. May be null.
  ClusterHealthMonitor(net::Network* network, core::LivenessOptions options,
                       std::function<void(const HealthReport&)> on_change);
  ~ClusterHealthMonitor();

  ClusterHealthMonitor(const ClusterHealthMonitor&) = delete;
  ClusterHealthMonitor& operator=(const ClusterHealthMonitor&) = delete;

  /// Registers a member and starts its heartbeat pump. Re-registering a
  /// member whose pump was stopped restarts it with fresh link state (a
  /// rejoin); re-registering a live member is a no-op. Every (member,
  /// peer) link in both directions starts out fresh.
  void AddMember(int32_t member);

  /// Simulates the member's process dying: its outbound heartbeats cease
  /// and every peer's observation of it goes stale. The member stays
  /// registered — a dead process never refutes, so it stays `down`.
  void StopHeartbeats(int32_t member);

  /// Starts the monitor thread.
  void Start();

  /// Stops the monitor thread and every pump.
  void Stop();

  /// Latest folded report (recomputed on demand).
  HealthReport Snapshot() const JET_EXCLUDES(mutex_);

  /// Members currently suspected somewhere in the mesh.
  std::vector<int32_t> SuspectedMembers() const JET_EXCLUDES(mutex_);

  /// Times a suspicion was withdrawn because a fresh heartbeat arrived.
  int64_t refutation_count() const;

 private:
  struct MemberState {
    std::atomic<bool> stop{false};
    std::thread pump;
  };
  struct Link {
    net::ChannelId channel = 0;
    // Written by the network delivery thread, read by the monitor.
    std::shared_ptr<std::atomic<Nanos>> last_rx;
  };

  // Dedicated heartbeat thread per member; sleeps between beats.
  void PumpLoop(int32_t member, std::shared_ptr<MemberState> state)
      JET_EXCLUDES(mutex_);
  // Monitor thread body. Audited callback scope: on_change_ is invoked
  // AFTER mutex_ is released (the report is folded under the lock, copied
  // out, and the callback — which re-enters JetCluster's control mutex —
  // runs lock-free), so monitor-internal and callback-side locks never
  // nest.
  void MonitorLoop() JET_EXCLUDES(mutex_);
  // Folds the freshness matrix into a report.
  HealthReport Evaluate(Nanos now) const JET_REQUIRES(mutex_);

  net::Network* network_;
  core::LivenessOptions options_;
  std::function<void(const HealthReport&)> on_change_;
  WallClock clock_;

  mutable jet::Mutex mutex_;
  std::map<int32_t, std::shared_ptr<MemberState>> members_ JET_GUARDED_BY(mutex_);
  // (from, to)
  std::map<std::pair<int32_t, int32_t>, Link> links_ JET_GUARDED_BY(mutex_);
  std::set<int32_t> last_suspected_ JET_GUARDED_BY(mutex_);
  int64_t refutations_ JET_GUARDED_BY(mutex_) = 0;

  std::atomic<bool> running_{false};
  std::thread monitor_;
};

}  // namespace jet::cluster

#endif  // JETSIM_CLUSTER_HEALTH_MONITOR_H_
