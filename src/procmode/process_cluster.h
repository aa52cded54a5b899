#ifndef JETSIM_PROCMODE_PROCESS_CLUSTER_H_
#define JETSIM_PROCMODE_PROCESS_CLUSTER_H_

#include <sys/types.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/restart_policy.h"
#include "core/snapshot_coordinator.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "net/socket_transport.h"
#include "obs/metrics_registry.h"
#include "procmode/proc_proto.h"
#include "procmode/windowed_job.h"

namespace jet::procmode {

/// Coordinator of a multi-process Jet cluster: spawns N `jet_member` OS
/// processes, serves their control connections over a Unix-domain socket,
/// and runs the job control plane that JetCluster runs in-process —
/// snapshot scheduling with an ack-timeout watchdog (§4.4), death-driven
/// recovery from the last committed snapshot, exactly-once verification of
/// sink results.
///
/// Self-healing (§4.4's continuous-operation story):
///  - **Respawn.** A dead member is re-forked under core::RestartPolicy,
///    the in-process cluster's restart policy (retry budget, jittered
///    backoff, storm coalescing, stability reset); a restart launch is the
///    fork of every dead member. The new process rejoins via Hello, and
///    recovery restarts the job at full DOP from the last committed
///    snapshot. Budget exhaustion is a clean terminal FAILED.
///  - **Replicated snapshots.** The coordinator mirrors each in-flight
///    snapshot's entries to one member process and commits only after that
///    replica seals and acks — every committed
///    epoch lives in >= 2 processes, so no single process loss (including
///    the replica holder) can lose a committed epoch.
///  - **Liveness.** Members heartbeat on the control socket; a silent
///    member is judged by core::JudgeHeartbeat, suspected past
///    `suspect_after` and SIGKILLed past `dead_after`, so a SIGSTOP'd
///    (hung, not dead) member is detected and replaced exactly like a
///    crash.
///
/// Death is otherwise detected as control-connection EOF. Recovery walk:
/// abort the in-flight snapshot, broadcast StopAttempt, await
/// AttemptStopped from every survivor (draining their control streams) and
/// the rejoin of every respawning member, sweep uncommitted store state,
/// then restart the job from the last committed snapshot at epoch+1. Stale
/// data frames of the dead epoch are dropped by the members' epoch filters.
class ProcessCluster {
 public:
  /// Member respawn.
  struct RespawnOptions {
    bool enabled = true;
    /// One policy for the whole cluster: every member death is an incident
    /// of the one job. Default backoff, stability_period 2 s.
    core::RestartOptions restart{BackoffOptions{}, 2 * kNanosPerSecond};
  };

  struct Options {
    /// Path of the jet_member executable.
    std::string member_binary;
    /// Directory for control/data sockets; created if missing.
    std::string work_dir;
    int32_t initial_members = 3;
    int32_t threads_per_member = 1;
    WindowedJobParams job_params;
    /// Cadence of coordinator-initiated snapshots.
    Nanos snapshot_interval = 50 * kNanosPerMilli;
    /// Watchdog: abort an in-flight snapshot not fully acked in time
    /// (covers a replica that never seals, too).
    Nanos snapshot_ack_timeout = 10 * kNanosPerSecond;
    /// Deadline for member processes to connect and send Hello.
    Nanos bring_up_timeout = 30 * kNanosPerSecond;
    RespawnOptions respawn;
    /// Failure detection beyond EOF, catching hung (SIGSTOP'd) members.
    /// The heartbeat cadence is shipped to jet_member via argv; a suspected
    /// member only shows in a gauge, a dead one is SIGKILLed. Defaults:
    /// heartbeat every 25 ms, suspect after 500 ms, dead after 3 s.
    core::LivenessOptions liveness{25 * kNanosPerMilli, 500 * kNanosPerMilli,
                                   3 * kNanosPerSecond};
    imdg::JobId job_id = 1;
  };

  /// Rendered metric snapshot, mirroring JetCluster::DiagnosticsDump.
  struct Diagnostics {
    std::string prometheus;
    std::string json;
  };

  explicit ProcessCluster(Options options);
  ~ProcessCluster();

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  /// Binds the control socket, spawns the member processes and waits for
  /// every member's Hello. A member dying during bring-up fails fast when
  /// respawn is disabled (no stall until bring_up_timeout); with respawn
  /// enabled the bring-up succeeds once the replacement joins.
  Status Start();

  /// Starts the windowed-count job (attempt 1, no restore) on all members.
  Status SubmitWindowedJob();

  /// Blocks until the last committed snapshot id reaches `min_snapshot_id`.
  Status WaitForCommittedSnapshot(int64_t min_snapshot_id, Nanos timeout);

  /// SIGKILLs a member process — the chaos injection. Recovery is
  /// triggered by the control connection's EOF, exactly as a real crash.
  Status KillMember(int32_t member_index);

  /// SIGSTOPs a member — hung, not dead: no EOF fires, only the heartbeat
  /// timeout can notice. The liveness pass escalates it to SIGKILL.
  Status StallMember(int32_t member_index);

  /// SIGCONTs a stalled member (refuting the suspicion if it wakes before
  /// `dead_after`).
  Status ResumeMember(int32_t member_index);

  /// Blocks until every member slot is alive and has said Hello — i.e.
  /// respawns caught up and the cluster is back at full membership.
  Status WaitForFullMembership(Nanos timeout);

  /// Blocks until every participant of the current attempt reported
  /// AttemptDone (across recoveries), or the job failed.
  Status AwaitJobCompletion(Nanos timeout);

  /// Shuts members down (graceful, then SIGKILL stragglers), stops the
  /// control plane. Idempotent; also run by the destructor.
  void Shutdown();

  /// Events the generator pushes per attempt-from-scratch; with recovery
  /// from a snapshot, replay makes the *distinct* result total equal it.
  int64_t expected_total() const { return WindowedJobExpectedTotal(options_.job_params); }

  /// Sum over distinct (key, window) sink results. Errors if two results
  /// for the same window disagreed — a broken exactly-once guarantee.
  Result<int64_t> DistinctTotal() const;

  /// DistinctTotal() == expected_total(), with diagnostics.
  Status VerifyExactlyOnce() const;

  /// Execution attempts started so far (1 = no recovery happened).
  int64_t attempts() const;
  int64_t last_committed_snapshot() const;
  int32_t live_member_count() const;
  /// Participants of the current attempt still alive — the running DOP.
  int32_t current_attempt_dop() const;
  /// Member respawns launched so far.
  int64_t respawn_count() const;
  /// Members currently suspected by the liveness pass.
  int32_t suspected_member_count() const;
  /// Respawn retries still allowed before terminal FAILED.
  int32_t retry_budget_remaining() const;
  /// Member index holding the replica of the last committed snapshot
  /// (-1: none committed with a replica yet).
  int32_t snapshot_replica_member() const;
  /// Replica seal rejections received so far (each aborted one snapshot).
  int64_t replica_reject_count() const;
  /// Test hook: corrupt the next replica seal's entry_count (off by one),
  /// forcing the replica to reject it. Deterministically exercises the
  /// explicit-negative-ack path without racing entry delivery.
  void CorruptNextReplicaSeal();
  /// Terminal failure reason (empty unless FAILED).
  std::string failure_message() const;

  /// Renders the coordinator's `proc.*` metrics (respawns, suspected
  /// members, live members, heartbeats, replica entries), the restart
  /// policy's `job.*` metrics and the shared snapshot metrics in both
  /// exporter formats.
  Diagnostics DiagnosticsDump() const;

 private:
  struct Member {
    int32_t index = 0;
    pid_t pid = -1;
    std::shared_ptr<net::SocketConnection> conn;
    std::string data_path;
    bool hello = false;
    bool alive = false;
    /// Plan-local node id in the current attempt; -1 = not participating.
    int32_t node_id = -1;
    bool ready = false;    // current epoch
    bool acked = false;    // current in-flight snapshot
    bool done = false;     // current epoch
    bool stopped = false;  // recovery: AttemptStopped received
    // -- liveness --
    Nanos last_heartbeat = 0;     // any control traffic counts
    bool suspected = false;       // heartbeat silence is suspect
    bool liveness_killed = false; // SIGKILL already sent (dead / no rejoin)
    // -- respawn --
    bool reaped = false;          // child already waited on
    Nanos spawn_time = 0;         // fork time of the current process
  };

  enum class Phase {
    kInit,        // before Start()
    kIdle,        // members up, no job
    kStarting,    // StartJob sent, awaiting Ready from all
    kRunning,     // Go broadcast, job executing
    kRecovering,  // member died: awaiting AttemptStopped + rejoins
    kDone,        // every participant reported AttemptDone
    kFailed,      // unrecoverable (budget exhausted / internal error)
  };

  struct Event {
    const net::SocketConnection* conn = nullptr;
    bool closed = false;
    ProcMsg msg;
  };

  Status SpawnMember(int32_t index) JET_REQUIRES(mu_);
  void SupervisorLoop();
  void HandleEvent(Event e) JET_REQUIRES(mu_);
  void TimerPass() JET_REQUIRES(mu_);
  /// Reaps members whose process exited without (or before) a control EOF
  /// — e.g. died before ever connecting, where no EOF will fire.
  void ReapScan() JET_REQUIRES(mu_);
  /// Suspect/dead escalation on heartbeat silence.
  void LivenessPass(Nanos now) JET_REQUIRES(mu_);
  /// Re-forks every dead member once the policy's restart is due; kills
  /// members that failed to rejoin within kRejoinTimeout.
  void RespawnPass(Nanos now) JET_REQUIRES(mu_);
  void OnMemberDied(int32_t index) JET_REQUIRES(mu_);
  /// Charges a member death to the restart policy; Fail()s the cluster and
  /// returns false when the budget is exhausted.
  bool ChargeDeath(int32_t index, Nanos now) JET_REQUIRES(mu_);
  /// True when every live participant of the attempt has `flag` set.
  bool AllParticipants(bool Member::*flag) const JET_REQUIRES(mu_);
  void MaybeFinishRecovery() JET_REQUIRES(mu_);
  /// Starts attempt `epoch_` on all live members, restoring from
  /// `restore_snapshot` when set.
  void StartAttempt(std::optional<imdg::SnapshotId> restore_snapshot) JET_REQUIRES(mu_);
  /// Commits (all member acks + replica ack, unless the replica holder
  /// died) or
  /// aborts the in-flight snapshot, broadcasts the outcome and clears its
  /// replication state. A failed commit aborts.
  void EndInFlightSnapshot(bool commit) JET_REQUIRES(mu_);
  void Broadcast(const ProcMsg& msg) JET_REQUIRES(mu_);
  void Fail(const std::string& why) JET_REQUIRES(mu_);
  int32_t MemberIndexOf(const net::SocketConnection* conn) JET_REQUIRES(mu_);
  /// Moves a dead member's connection to retired_conns_ so its pointer
  /// stays unique until its close event is processed (a freed conn's
  /// address could otherwise be reused by a respawn and alias a stale EOF
  /// onto the healthy replacement).
  void RetireConn(Member& m) JET_REQUIRES(mu_);
  /// Sends `signo` to a live member; refused once Shutdown() started
  /// reaping.
  Status SignalMember(int32_t member_index, int signo, const char* what);

  Options options_;

  imdg::DataGrid grid_;
  imdg::SnapshotStore store_;
  const core::SnapshotWriterFn write_entry_;  // members' entries into store_

  std::unique_ptr<net::SocketServer> control_server_;
  std::thread supervisor_;

  mutable jet::Mutex mu_;
  jet::CondVar cv_;
  std::deque<Event> events_ JET_GUARDED_BY(mu_);
  std::vector<Member> members_ JET_GUARDED_BY(mu_);
  /// Accepted control connections that have not sent Hello yet.
  std::vector<std::shared_ptr<net::SocketConnection>> pending_conns_ JET_GUARDED_BY(mu_);
  /// Dead members' connections, held until their close event drains.
  std::vector<std::shared_ptr<net::SocketConnection>> retired_conns_ JET_GUARDED_BY(mu_);
  Phase phase_ JET_GUARDED_BY(mu_) = Phase::kInit;
  std::string failure_ JET_GUARDED_BY(mu_);
  int64_t epoch_ JET_GUARDED_BY(mu_) = 0;  // == attempts started
  /// Ids are monotonic across attempts — a snapshot id can never be
  /// ambiguous between the attempt that started it and the one that
  /// restored it.
  core::SnapshotCoordinator snapshots_ JET_GUARDED_BY(mu_);
  /// Replication state of the in-flight snapshot.
  int32_t replica_member_ JET_GUARDED_BY(mu_) = -1;
  int64_t replica_entries_sent_ JET_GUARDED_BY(mu_) = 0;
  bool replica_seal_sent_ JET_GUARDED_BY(mu_) = false;
  /// Member holding the replica of the last *committed* snapshot.
  int32_t last_replica_holder_ JET_GUARDED_BY(mu_) = -1;
  /// Replica seal rejections received (explicit negative acks).
  int64_t replica_rejects_ JET_GUARDED_BY(mu_) = 0;
  /// Test hook (CorruptNextReplicaSeal): off-by-one the next seal's count.
  bool corrupt_next_seal_ JET_GUARDED_BY(mu_) = false;
  core::RestartPolicy restart_policy_ JET_GUARDED_BY(mu_);
  int64_t respawns_ JET_GUARDED_BY(mu_) = 0;
  /// Distinct sink results: (key, window_end) -> count. Two attempts
  /// emitting the same window must agree — the exactly-once check.
  std::map<std::pair<uint64_t, Nanos>, int64_t> results_ JET_GUARDED_BY(mu_);
  Status result_conflict_ JET_GUARDED_BY(mu_);
  bool shutting_down_ JET_GUARDED_BY(mu_) = false;
  bool supervisor_exit_ JET_GUARDED_BY(mu_) = false;

  /// `proc.*` gauges/counters. Written by the supervisor thread only
  /// (single-writer contract); snapshotted by DiagnosticsDump.
  obs::MetricsRegistry registry_;
  obs::Counter respawns_counter_;        // proc.respawns
  obs::Counter heartbeats_counter_;      // proc.heartbeats
  obs::Counter replica_entries_counter_; // proc.replica_entries
  obs::Counter replica_rejects_counter_; // proc.replica_rejects
  obs::Gauge suspected_gauge_;           // proc.suspected_members
  obs::Gauge live_members_gauge_;        // proc.live_members
};

}  // namespace jet::procmode

#endif  // JETSIM_PROCMODE_PROCESS_CLUSTER_H_
