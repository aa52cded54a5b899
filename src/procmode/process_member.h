#ifndef JETSIM_PROCMODE_PROCESS_MEMBER_H_
#define JETSIM_PROCMODE_PROCESS_MEMBER_H_

#include <time.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dag.h"
#include "core/job.h"
#include "core/snapshot_coordinator.h"
#include "net/exchange.h"
#include "net/network.h"
#include "net/socket_transport.h"
#include "procmode/proc_proto.h"
#include "procmode/replica_store.h"
#include "procmode/socket_exchange.h"
#include "procmode/windowed_job.h"

namespace jet::procmode {

/// Clock sharing one time domain across all member processes of a machine:
/// CLOCK_MONOTONIC is machine-wide, so subtracting a common anchor (picked
/// by the coordinator, shipped in StartJob) gives every process identical
/// readings. Event timestamps, window boundaries and snapshot-restored
/// generator anchors stay comparable across processes and across attempts.
class SharedMonotonicClock final : public Clock {
 public:
  explicit SharedMonotonicClock(Nanos anchor) : anchor_(anchor) {}

  Nanos Now() const override { return RawNow() - anchor_; }

  static Nanos RawNow() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<Nanos>(ts.tv_sec) * kNanosPerSecond + ts.tv_nsec;
  }

 private:
  Nanos anchor_;
};

/// One Jet member as an OS process: owns this member's data-socket server,
/// a control connection to the coordinator, one helper loop (heartbeats,
/// snapshot acks, completion report) and — per attempt — the member's
/// slice of the execution (a core::MemberExecution whose exchange runs over
/// SocketExchangeRegistry).
/// The process persists across attempts; each StartJob assigns it a fresh
/// plan-local node id for that epoch. jet_member's main() is a thin
/// wrapper around Run().
class ProcessMember {
 public:
  struct Options {
    int32_t member_index = 0;
    /// Directory for this member's data socket.
    std::string work_dir;
    /// Coordinator's control-socket path.
    std::string control_path;
    /// Liveness heartbeat cadence on the control socket (0 disables).
    /// Shipped by the coordinator as jet_member's 4th argv.
    Nanos heartbeat_interval = 25 * kNanosPerMilli;
  };

  explicit ProcessMember(Options options) : options_(std::move(options)) {}
  ~ProcessMember();

  ProcessMember(const ProcessMember&) = delete;
  ProcessMember& operator=(const ProcessMember&) = delete;

  /// Brings up the data server, connects control, sends Hello, and serves
  /// attempts until Shutdown arrives or the coordinator disappears.
  Status Run();

 private:
  /// Everything belonging to one execution attempt. Held by shared_ptr:
  /// data-connection I/O threads grab a reference to route inbound frames,
  /// so a torn-down attempt is freed only after the last in-flight
  /// dispatch returns.
  struct Attempt {
    int64_t epoch = 0;
    int32_t node_id = 0;
    int32_t node_count = 1;
    WindowedJobParams params;
    core::Dag dag;
    std::unique_ptr<SharedMonotonicClock> clock;
    /// Member-local in-memory bus; allocates channel ids only.
    std::unique_ptr<net::Network> bus;
    std::vector<std::shared_ptr<net::SocketConnection>> peer_conns;
    std::shared_ptr<SocketExchangeRegistry> registry;
    core::SnapshotControl snapshot_control;
    std::atomic<bool> cancelled{false};
    /// Declared after everything its tasklets point into, so it goes first.
    std::unique_ptr<core::MemberExecution> member;
    int64_t restore_remaining = 0;
    /// Routes the restore entries the coordinator ships (it owns the
    /// store) as they arrive; null when the attempt restores nothing.
    std::unique_ptr<core::RestoreRouter> restore;
    bool running = false;  // Go received, service started
    // Set by HandleGo before the helper loop gets the attempt; then the
    // helper's alone (under helper_mu_).
    core::SnapshotParticipants participants;
    int64_t last_acked = 0;
    bool done_sent = false;
  };

  // Control-plane plumbing. HandleControlFrame runs on the control
  // connection's I/O thread: snapshot signals are applied to the current
  // attempt's atomics inline (they must not wait behind a structural
  // message being processed), everything else is queued for the Run()
  // thread.
  void HandleControlFrame(Bytes frame);
  void EnqueueMsg(ProcMsg msg);
  Status SendControl(const ProcMsg& msg);

  // Structural message handlers; all run on the Run() thread.
  Status HandleStartJob(ProcMsg msg);
  Status HandleRestoreEntry(ProcMsg msg);
  Status FinishBringUp();  // restore applied -> Ready
  Status HandleGo();
  void TeardownAttempt();

  // The helper loop's thread body: heartbeats every heartbeat_interval and,
  // every kPumpPollInterval while an attempt runs, PumpAttempt.
  void HelperLoop() JET_EXCLUDES(helper_mu_);
  // Acks the attempt's requested snapshot once every local participant
  // persisted it (the in-process coordinator's commit gate) and reports
  // the attempt done once its service completed.
  void PumpAttempt(Attempt& attempt) JET_REQUIRES(helper_mu_);

  // Data-plane: inbound frames from peer members.
  void DispatchDataFrame(Bytes frame);

  std::shared_ptr<Attempt> current_attempt() {
    jet::MutexLock lock(attempt_mu_);
    return attempt_;
  }

  Options options_;
  std::shared_ptr<net::SocketConnection> control_;
  std::unique_ptr<net::SocketServer> data_server_;
  std::string data_path_;

  /// Mirror of in-flight/committed snapshot state this member holds as the
  /// coordinator's replica. Touched on the control I/O thread only
  /// (plus introspection), see replica_store.h.
  ReplicaStore replica_store_;

  /// The helper loop, kept apart from Run() so heartbeats go on while Run()
  /// tears an attempt down. Its heartbeats prove the process is
  /// scheduling, not just connected: a SIGSTOP'd member keeps its socket
  /// open but stops beating.
  std::thread helper_;
  jet::Mutex helper_mu_;
  jet::CondVar helper_cv_;
  bool helper_stop_ JET_GUARDED_BY(helper_mu_) = false;
  /// The running attempt the helper pumps. TeardownAttempt takes it back
  /// under helper_mu_, so nothing of an attempt is sent once its teardown
  /// began, and in particular nothing after its kAttemptStopped reply.
  std::shared_ptr<Attempt> pumped_ JET_GUARDED_BY(helper_mu_);

  jet::Mutex attempt_mu_;
  std::shared_ptr<Attempt> attempt_ JET_GUARDED_BY(attempt_mu_);

  jet::Mutex queue_mu_;
  jet::CondVar queue_cv_;
  std::deque<ProcMsg> queue_ JET_GUARDED_BY(queue_mu_);
  bool control_lost_ JET_GUARDED_BY(queue_mu_) = false;

  jet::Mutex data_conns_mu_;
  std::vector<std::unique_ptr<net::SocketConnection>> data_conns_
      JET_GUARDED_BY(data_conns_mu_);
};

}  // namespace jet::procmode

#endif  // JETSIM_PROCMODE_PROCESS_MEMBER_H_
