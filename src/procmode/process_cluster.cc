#include "procmode/process_cluster.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "imdg/partition.h"
#include "obs/exporters.h"
#include "procmode/process_member.h"

namespace jet::procmode {

using std::chrono::milliseconds;

namespace {

constexpr Nanos kSupervisorTick = 2 * kNanosPerMilli;
/// A respawned process must Hello within this long or it is killed and its
/// death charged as a new incident.
constexpr Nanos kRejoinTimeout = 10 * kNanosPerSecond;
/// Shutdown() escalates to SIGKILL after this graceful window.
constexpr Nanos kGracefulExitTimeout = 10 * kNanosPerSecond;

Nanos Now() { return SharedMonotonicClock::RawNow(); }

obs::MetricTags TagsFor(imdg::JobId job_id) {
  obs::MetricTags tags;
  tags.job = static_cast<int64_t>(job_id);
  return tags;
}

/// Reaps `pid` once. blocking=false is a single WNOHANG probe. Returns true
/// when the child is gone: reaped here, or ECHILD (already reaped — e.g.
/// the reap scan raced the EOF path). EINTR retries; a child that is still
/// running returns false.
bool TryReap(pid_t pid, bool blocking) {
  for (;;) {
    int wstatus = 0;
    const pid_t r = ::waitpid(pid, &wstatus, blocking ? 0 : WNOHANG);
    if (r == pid) return true;
    if (r == 0) return false;  // WNOHANG: still running
    if (errno == EINTR) continue;
    if (errno == ECHILD) return true;  // no such child: already reaped
    JET_LOG(kError) << "waitpid(" << pid << ") failed: " << std::strerror(errno);
    return true;  // unexpected errno — nothing further to wait for
  }
}

}  // namespace

ProcessCluster::ProcessCluster(Options options)
    : options_(std::move(options)),
      grid_(/*backup_count=*/0),
      store_(&grid_),
      write_entry_(core::StoreSnapshotWriter(&store_, options_.job_id)),
      snapshots_(&store_, options_.job_id, options_.snapshot_interval,
                 options_.snapshot_ack_timeout),
      restart_policy_(options_.respawn.restart, options_.job_id, Now()),
      registry_(TagsFor(options_.job_id)) {
  // The coordinator is the grid's only member: snapshot durability in
  // process mode means "reached the coordinator's store" and "mirrored in
  // one member process too".
  JET_DCHECK_OK(grid_.AddMember(0).status());
  respawns_counter_ = registry_.GetCounter("proc.respawns");
  heartbeats_counter_ = registry_.GetCounter("proc.heartbeats");
  replica_entries_counter_ = registry_.GetCounter("proc.replica_entries");
  replica_rejects_counter_ = registry_.GetCounter("proc.replica_rejects");
  suspected_gauge_ = registry_.GetGauge("proc.suspected_members");
  live_members_gauge_ = registry_.GetGauge("proc.live_members");
  jet::MutexLock lock(mu_);
  snapshots_.BindMetrics(&registry_);
  restart_policy_.BindMetrics(&registry_);
}

ProcessCluster::~ProcessCluster() { Shutdown(); }

Status ProcessCluster::Start() {
  ::mkdir(options_.work_dir.c_str(), 0755);
  const std::string control_path = options_.work_dir + "/control.sock";
  auto server = net::SocketServer::ListenUnix(control_path);
  JET_RETURN_IF_ERROR(server.status());
  control_server_ = std::move(server.value());
  control_server_->Start([this](std::unique_ptr<net::SocketConnection> conn) {
    std::shared_ptr<net::SocketConnection> shared = std::move(conn);
    const net::SocketConnection* id = shared.get();
    // Register the connection before its I/O thread starts: the member's
    // Hello can arrive the instant Start() returns, and binding it to a
    // Member requires the conn to already be in pending_conns_.
    {
      jet::MutexLock lock(mu_);
      pending_conns_.push_back(shared);
    }
    shared->Start(
        [this, id](Bytes frame) {
          Event e;
          e.conn = id;
          auto msg = DecodeControlMessage(frame);
          if (!msg.ok()) {
            JET_LOG(kError) << "bad control message: " << msg.status().ToString();
            return;
          }
          e.msg = std::move(msg.value());
          jet::MutexLock lock(mu_);
          events_.push_back(std::move(e));
          cv_.NotifyAll();
        },
        [this, id]() {
          Event e;
          e.conn = id;
          e.closed = true;
          jet::MutexLock lock(mu_);
          events_.push_back(std::move(e));
          cv_.NotifyAll();
        });
  });

  {
    jet::MutexLock lock(mu_);
    members_.resize(static_cast<size_t>(options_.initial_members));
    for (int32_t i = 0; i < options_.initial_members; ++i) {
      members_[static_cast<size_t>(i)].index = i;
      JET_RETURN_IF_ERROR(SpawnMember(i));
    }
    phase_ = Phase::kIdle;
  }
  supervisor_ = std::thread([this]() { SupervisorLoop(); });

  // Await every member's Hello. A bring-up death fails fast (when respawn
  // is off) or is healed by a respawn (when on) — no 30 s stall either way.
  const Nanos deadline = Now() + options_.bring_up_timeout;
  jet::MutexLock lock(mu_);
  for (;;) {
    bool all = true;
    for (const Member& m : members_) {
      if (!m.hello) all = false;
    }
    if (all) return Status::OK();
    if (phase_ == Phase::kFailed) return InternalError("cluster failed: " + failure_);
    const Nanos left = deadline - Now();
    if (left <= 0) return TimedOutError("members did not all say Hello");
    cv_.WaitFor(mu_, milliseconds(std::max<int64_t>(1, left / kNanosPerMilli)));
  }
}

Status ProcessCluster::SpawnMember(int32_t index) {
  const std::string control_path = options_.work_dir + "/control.sock";
  const std::string index_str = std::to_string(index);
  const std::string hb_ms_str =
      std::to_string(options_.liveness.heartbeat_interval / kNanosPerMilli);
  const pid_t pid = ::fork();
  if (pid < 0) return InternalError("fork failed");
  if (pid == 0) {
    // Child: become the member process.
    ::execl(options_.member_binary.c_str(), options_.member_binary.c_str(),
            control_path.c_str(), index_str.c_str(), options_.work_dir.c_str(),
            hb_ms_str.c_str(), static_cast<char*>(nullptr));
    // Only reached when exec failed; _exit (not exit) — this child must not
    // run the coordinator's atexit handlers.
    ::_exit(127);
  }
  Member& m = members_[static_cast<size_t>(index)];
  m.pid = pid;
  m.alive = true;
  m.hello = false;
  m.ready = false;
  m.acked = false;
  m.done = false;
  m.stopped = false;
  m.node_id = -1;
  m.suspected = false;
  m.liveness_killed = false;
  m.reaped = false;
  m.spawn_time = Now();
  m.last_heartbeat = m.spawn_time;
  return Status::OK();
}

Status ProcessCluster::SubmitWindowedJob() {
  jet::MutexLock lock(mu_);
  if (phase_ != Phase::kIdle) return FailedPreconditionError("cluster not idle");
  epoch_ = 1;
  StartAttempt(std::nullopt);
  return Status::OK();
}

Status ProcessCluster::WaitForCommittedSnapshot(int64_t min_snapshot_id, Nanos timeout) {
  const Nanos deadline = Now() + timeout;
  jet::MutexLock lock(mu_);
  for (;;) {
    if (snapshots_.last_committed() >= min_snapshot_id) return Status::OK();
    if (phase_ == Phase::kFailed) return InternalError("cluster failed: " + failure_);
    if (phase_ == Phase::kDone) {
      return FailedPreconditionError("job finished before the snapshot committed");
    }
    const Nanos left = deadline - Now();
    if (left <= 0) return TimedOutError("no committed snapshot in time");
    cv_.WaitFor(mu_, milliseconds(std::max<int64_t>(1, left / kNanosPerMilli)));
  }
}

Status ProcessCluster::SignalMember(int32_t member_index, int signo, const char* what) {
  // Signal under mu_, as LivenessPass and RespawnPass do: the supervisor
  // reaps members under mu_, so while it is held m.pid cannot be reaped
  // and handed to an unrelated process.
  jet::MutexLock lock(mu_);
  if (shutting_down_) return FailedPreconditionError("cluster is shutting down");
  if (member_index < 0 || static_cast<size_t>(member_index) >= members_.size()) {
    return InvalidArgumentError("no such member");
  }
  const Member& m = members_[static_cast<size_t>(member_index)];
  if (!m.alive || m.pid <= 0) return FailedPreconditionError("member already dead");
  if (::kill(m.pid, signo) != 0) {
    return InternalError(std::string(what) + " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Status ProcessCluster::KillMember(int32_t member_index) {
  // Death is observed through the control connection's EOF — the same
  // signal a real crash produces. Nothing else to do here.
  return SignalMember(member_index, SIGKILL, "kill(SIGKILL)");
}

Status ProcessCluster::StallMember(int32_t member_index) {
  return SignalMember(member_index, SIGSTOP, "kill(SIGSTOP)");
}

Status ProcessCluster::ResumeMember(int32_t member_index) {
  return SignalMember(member_index, SIGCONT, "kill(SIGCONT)");
}

Status ProcessCluster::WaitForFullMembership(Nanos timeout) {
  const Nanos deadline = Now() + timeout;
  jet::MutexLock lock(mu_);
  for (;;) {
    bool full = true;
    for (const Member& m : members_) {
      if (!m.alive || !m.hello) full = false;
    }
    if (full) return Status::OK();
    if (phase_ == Phase::kFailed) return InternalError("cluster failed: " + failure_);
    const Nanos left = deadline - Now();
    if (left <= 0) return TimedOutError("cluster did not return to full membership");
    cv_.WaitFor(mu_, milliseconds(std::max<int64_t>(1, left / kNanosPerMilli)));
  }
}

Status ProcessCluster::AwaitJobCompletion(Nanos timeout) {
  const Nanos deadline = Now() + timeout;
  jet::MutexLock lock(mu_);
  for (;;) {
    if (phase_ == Phase::kDone) return Status::OK();
    if (phase_ == Phase::kFailed) return InternalError("cluster failed: " + failure_);
    const Nanos left = deadline - Now();
    if (left <= 0) return TimedOutError("job did not complete in time");
    cv_.WaitFor(mu_, milliseconds(std::max<int64_t>(1, left / kNanosPerMilli)));
  }
}

void ProcessCluster::Shutdown() {
  std::vector<std::pair<int32_t, pid_t>> children;
  {
    jet::MutexLock lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
    ProcMsg bye;
    bye.type = ProcMsgType::kShutdown;
    for (Member& m : members_) {
      if (m.alive && m.conn != nullptr) (void)m.conn->SendFrame(EncodeControlMessage(bye));
      if (m.alive && m.pid > 0 && !m.reaped) children.emplace_back(m.index, m.pid);
      // A SIGSTOP'd member cannot run its Shutdown handler; wake it so the
      // graceful window has a chance before the SIGKILL escalation.
      if (m.alive && m.pid > 0) (void)::kill(m.pid, SIGCONT);
    }
  }

  // Reap children: graceful window first, then escalate to SIGKILL + a
  // blocking reap so Shutdown() can never hang on a wedged member.
  const Nanos deadline = Now() + kGracefulExitTimeout;
  for (auto& [index, pid] : children) {
    for (;;) {
      if (TryReap(pid, /*blocking=*/false)) break;
      if (Now() >= deadline) {
        JET_LOG(kWarn) << "member " << index << " (pid " << pid
                       << ") ignored graceful shutdown; sending SIGKILL";
        (void)::kill(pid, SIGKILL);
        TryReap(pid, /*blocking=*/true);
        break;
      }
      std::this_thread::sleep_for(milliseconds(5));
    }
  }

  {
    jet::MutexLock lock(mu_);
    // Every child is reaped now, and TimerPass no longer runs to notice.
    for (const auto& child : children) {
      members_[static_cast<size_t>(child.first)].reaped = true;
    }
    for (Member& m : members_) m.alive = false;
    live_members_gauge_.Set(0);
    supervisor_exit_ = true;
    cv_.NotifyAll();
  }
  if (supervisor_.joinable()) supervisor_.join();
  if (control_server_ != nullptr) control_server_->Stop();

  std::vector<std::shared_ptr<net::SocketConnection>> conns;
  {
    jet::MutexLock lock(mu_);
    for (Member& m : members_) {
      if (m.conn != nullptr) conns.push_back(std::move(m.conn));
    }
    for (auto& c : pending_conns_) conns.push_back(std::move(c));
    pending_conns_.clear();
    for (auto& c : retired_conns_) conns.push_back(std::move(c));
    retired_conns_.clear();
  }
  for (auto& c : conns) c->Close();
}

Result<int64_t> ProcessCluster::DistinctTotal() const {
  jet::MutexLock lock(mu_);
  JET_RETURN_IF_ERROR(result_conflict_);
  int64_t total = 0;
  for (const auto& [key, count] : results_) total += count;
  return total;
}

Status ProcessCluster::VerifyExactlyOnce() const {
  auto total = DistinctTotal();
  JET_RETURN_IF_ERROR(total.status());
  const int64_t expected = expected_total();
  if (total.value() != expected) {
    return InternalError("exactly-once violated: distinct result total " +
                         std::to_string(total.value()) + " != expected " +
                         std::to_string(expected));
  }
  return Status::OK();
}

int64_t ProcessCluster::attempts() const {
  jet::MutexLock lock(mu_);
  return epoch_;
}

int64_t ProcessCluster::last_committed_snapshot() const {
  jet::MutexLock lock(mu_);
  return snapshots_.last_committed();
}

int32_t ProcessCluster::live_member_count() const {
  jet::MutexLock lock(mu_);
  int32_t n = 0;
  for (const Member& m : members_) {
    if (m.alive) ++n;
  }
  return n;
}

int32_t ProcessCluster::current_attempt_dop() const {
  jet::MutexLock lock(mu_);
  int32_t n = 0;
  for (const Member& m : members_) {
    if (m.alive && m.node_id >= 0) ++n;
  }
  return n;
}

int64_t ProcessCluster::respawn_count() const {
  jet::MutexLock lock(mu_);
  return respawns_;
}

int32_t ProcessCluster::suspected_member_count() const {
  jet::MutexLock lock(mu_);
  int32_t n = 0;
  for (const Member& m : members_) {
    if (m.alive && m.suspected) ++n;
  }
  return n;
}

int32_t ProcessCluster::retry_budget_remaining() const {
  jet::MutexLock lock(mu_);
  return restart_policy_.budget_remaining();
}

int32_t ProcessCluster::snapshot_replica_member() const {
  jet::MutexLock lock(mu_);
  return last_replica_holder_;
}

int64_t ProcessCluster::replica_reject_count() const {
  jet::MutexLock lock(mu_);
  return replica_rejects_;
}

void ProcessCluster::CorruptNextReplicaSeal() {
  jet::MutexLock lock(mu_);
  corrupt_next_seal_ = true;
}

std::string ProcessCluster::failure_message() const {
  jet::MutexLock lock(mu_);
  return failure_;
}

ProcessCluster::Diagnostics ProcessCluster::DiagnosticsDump() const {
  std::vector<obs::MetricSnapshot> metrics = registry_.Snapshot();
  Diagnostics d;
  d.prometheus = obs::RenderPrometheusText(metrics);
  d.json = obs::RenderJson(metrics);
  return d;
}

void ProcessCluster::SupervisorLoop() {
  jet::MutexLock lock(mu_);
  while (!supervisor_exit_) {
    cv_.WaitFor(mu_, milliseconds(kSupervisorTick / kNanosPerMilli),
                [this]() JET_REQUIRES(mu_) { return !events_.empty() || supervisor_exit_; });
    while (!events_.empty()) {
      Event e = std::move(events_.front());
      events_.pop_front();
      HandleEvent(std::move(e));
    }
    TimerPass();
  }
}

int32_t ProcessCluster::MemberIndexOf(const net::SocketConnection* conn) {
  for (const Member& m : members_) {
    if (m.conn.get() == conn) return m.index;
  }
  return -1;
}

void ProcessCluster::RetireConn(Member& m) {
  if (m.conn == nullptr) return;
  retired_conns_.push_back(std::move(m.conn));
  m.conn = nullptr;
}

void ProcessCluster::HandleEvent(Event e) {
  if (e.closed) {
    const int32_t index = MemberIndexOf(e.conn);
    if (index >= 0 && !shutting_down_) OnMemberDied(index);  // retires the conn
    // The close event is the last thing a connection ever emits: release
    // our reference so a future accept can safely reuse the pointer value.
    // (Bound conns of shutting-down members stay put for Shutdown().)
    for (auto it = pending_conns_.begin(); it != pending_conns_.end(); ++it) {
      if (it->get() == e.conn) {
        pending_conns_.erase(it);
        return;
      }
    }
    for (auto it = retired_conns_.begin(); it != retired_conns_.end(); ++it) {
      if (it->get() == e.conn) {
        retired_conns_.erase(it);
        return;
      }
    }
    return;
  }

  // Any inbound traffic is a liveness proof for the sending member.
  {
    const int32_t index = MemberIndexOf(e.conn);
    if (index >= 0) {
      Member& m = members_[static_cast<size_t>(index)];
      m.last_heartbeat = Now();
      m.suspected = false;
    }
  }

  const ProcMsg& msg = e.msg;
  switch (msg.type) {
    case ProcMsgType::kHeartbeat: {
      heartbeats_counter_.Add(1);
      return;
    }
    case ProcMsgType::kHello: {
      if (msg.member_index < 0 ||
          static_cast<size_t>(msg.member_index) >= members_.size()) {
        JET_LOG(kError) << "Hello from unknown member " << msg.member_index;
        return;
      }
      Member& m = members_[static_cast<size_t>(msg.member_index)];
      for (auto it = pending_conns_.begin(); it != pending_conns_.end(); ++it) {
        if (it->get() == e.conn) {
          m.conn = std::move(*it);
          pending_conns_.erase(it);
          break;
        }
      }
      if (m.conn == nullptr) {
        // Hello from a connection we no longer hold (already closed and
        // swept); a member is only usable once its conn is bound.
        JET_LOG(kError) << "Hello from member " << msg.member_index
                        << " on an unknown connection";
        return;
      }
      m.hello = true;
      m.data_path = msg.data_path;
      m.last_heartbeat = Now();
      m.suspected = false;
      // A respawned member rejoined; recovery may now restart at full DOP.
      if (phase_ == Phase::kRecovering) MaybeFinishRecovery();
      cv_.NotifyAll();
      return;
    }
    case ProcMsgType::kReady: {
      if (msg.epoch != epoch_ || phase_ != Phase::kStarting) return;
      const int32_t index = MemberIndexOf(e.conn);
      if (index < 0) return;
      members_[static_cast<size_t>(index)].ready = true;
      if (!AllParticipants(&Member::ready)) return;
      // Every member's epoch-N exchange registry is installed before any
      // epoch-N frame can flow — the Ready/Go barrier.
      ProcMsg go;
      go.type = ProcMsgType::kGo;
      go.epoch = epoch_;
      Broadcast(go);
      phase_ = Phase::kRunning;
      snapshots_.StartAttempt(snapshots_.next_id(), Now());
      return;
    }
    case ProcMsgType::kSnapshotEntry: {
      // Accepted regardless of epoch: stragglers of a dying attempt belong
      // to an uncommitted snapshot that ClearInFlight sweeps after all
      // survivors reported stopped — and that sweep is ordered after every
      // straggler by the control sockets' FIFO ordering.
      write_entry_(msg.snapshot_id, msg.vertex_id, msg.writer_index,
                   {msg.key_hash, msg.key, msg.value});
      // Mirror in-flight entries to the replica member. FIFO on the replica's
      // control socket orders every entry before the seal that counts them.
      if (msg.snapshot_id == snapshots_.in_flight() && replica_member_ >= 0 &&
          !replica_seal_sent_) {
        Member& r = members_[static_cast<size_t>(replica_member_)];
        if (r.alive && r.conn != nullptr) {
          ProcMsg fwd = msg;
          fwd.type = ProcMsgType::kSnapshotReplicaEntry;
          fwd.epoch = epoch_;
          (void)r.conn->SendFrame(EncodeControlMessage(fwd));
          ++replica_entries_sent_;
          replica_entries_counter_.Add(1);
        }
      }
      return;
    }
    case ProcMsgType::kSnapshotAck: {
      if (msg.epoch != epoch_ || msg.snapshot_id != snapshots_.in_flight()) return;
      const int32_t index = MemberIndexOf(e.conn);
      if (index < 0) return;
      members_[static_cast<size_t>(index)].acked = true;
      if (!AllParticipants(&Member::acked)) return;
      // Every participant acked; the FIFO ordering guarantees all their
      // state entries already hit the store (proc_proto.h). Commit
      // additionally waits for the replica's ack.
      if (replica_member_ >= 0) {
        Member& r = members_[static_cast<size_t>(replica_member_)];
        if (r.alive && r.conn != nullptr) {
          ProcMsg seal;
          seal.type = ProcMsgType::kSnapshotReplicaSeal;
          seal.epoch = epoch_;
          seal.snapshot_id = snapshots_.in_flight();
          seal.entry_count = replica_entries_sent_;
          if (corrupt_next_seal_) {
            corrupt_next_seal_ = false;
            ++seal.entry_count;  // test hook: force a replica reject
          }
          (void)r.conn->SendFrame(EncodeControlMessage(seal));
          replica_seal_sent_ = true;
          return;  // commit on kSnapshotReplicaAck
        }
        // Replica died under us; its death will abort this snapshot via
        // recovery. Fall through only if it is somehow still counted live.
        replica_member_ = -1;
      }
      EndInFlightSnapshot(/*commit=*/true);
      return;
    }
    case ProcMsgType::kSnapshotReplicaAck:
    case ProcMsgType::kSnapshotReplicaReject: {
      if (msg.epoch != epoch_ || msg.snapshot_id != snapshots_.in_flight() ||
          !replica_seal_sent_) {
        return;
      }
      const int32_t index = MemberIndexOf(e.conn);
      if (index != replica_member_) return;
      if (msg.type == ProcMsgType::kSnapshotReplicaAck) {
        EndInFlightSnapshot(/*commit=*/true);
        return;
      }
      // Explicit negative ack: the replica's entry count disagreed with the
      // seal. Abort right now — without this message the only way to learn
      // of the hole is the ack-timeout watchdog, which burns seconds on a
      // condition the replica detected instantly.
      JET_LOG(kWarn) << "replica member " << index << " rejected snapshot "
                     << msg.snapshot_id << " (has " << msg.entry_count
                     << " entries, expected " << replica_entries_sent_
                     << "); aborting";
      ++replica_rejects_;
      replica_rejects_counter_.Add(1);
      EndInFlightSnapshot(/*commit=*/false);
      return;
    }
    case ProcMsgType::kSinkResult: {
      // Any-epoch: a replayed window must agree with its first emission —
      // that agreement *is* the exactly-once property under test.
      const auto key = std::make_pair(msg.result_key, msg.window_end);
      auto [it, inserted] = results_.emplace(key, msg.result_value);
      if (!inserted && it->second != msg.result_value) {
        result_conflict_ = InternalError(
            "conflicting results for key " + std::to_string(msg.result_key) +
            " window_end " + std::to_string(msg.window_end) + ": " +
            std::to_string(it->second) + " vs " + std::to_string(msg.result_value));
      }
      return;
    }
    case ProcMsgType::kAttemptDone: {
      if (msg.epoch != epoch_ || phase_ != Phase::kRunning) return;
      const int32_t index = MemberIndexOf(e.conn);
      if (index < 0) return;
      members_[static_cast<size_t>(index)].done = true;
      if (AllParticipants(&Member::done)) {
        phase_ = Phase::kDone;
        restart_policy_.OnCompleted();
        cv_.NotifyAll();
      }
      return;
    }
    case ProcMsgType::kAttemptStopped: {
      if (phase_ != Phase::kRecovering || msg.epoch != epoch_) return;
      const int32_t index = MemberIndexOf(e.conn);
      if (index < 0) return;
      members_[static_cast<size_t>(index)].stopped = true;
      MaybeFinishRecovery();
      return;
    }
    default:
      JET_LOG(kWarn) << "coordinator got unexpected message type "
                     << static_cast<int>(msg.type);
      return;
  }
}

void ProcessCluster::TimerPass() {
  if (shutting_down_) return;
  const Nanos now = Now();
  ReapScan();
  const int64_t begun = phase_ == Phase::kRunning ? snapshots_.MaybeBegin(now) : 0;
  if (begun != 0) {
    for (Member& m : members_) m.acked = false;
    // Pick the replica holder for this snapshot: rotate over the
    // participants so replica load (and chaos coverage) spreads out.
    std::vector<int32_t> participants;
    for (const Member& m : members_) {
      if (m.alive && m.node_id >= 0 && m.conn != nullptr) {
        participants.push_back(m.index);
      }
    }
    if (!participants.empty()) {
      replica_member_ = participants[static_cast<size_t>(
          begun % static_cast<int64_t>(participants.size()))];
    }
    ProcMsg req;
    req.type = ProcMsgType::kSnapshotRequest;
    req.epoch = epoch_;
    req.snapshot_id = begun;
    Broadcast(req);
  }
  if (snapshots_.Overdue(now)) {
    JET_LOG(kWarn) << "snapshot " << snapshots_.in_flight() << " timed out; aborting";
    EndInFlightSnapshot(/*commit=*/false);
  }
  LivenessPass(now);
  RespawnPass(now);
  int32_t live = 0;
  for (const Member& m : members_) {
    if (m.alive) ++live;
  }
  live_members_gauge_.Set(live);
}

void ProcessCluster::ReapScan() {
  // A member that dies before its control connection exists (exec failure,
  // crash during bring-up) produces no EOF — the only evidence is the
  // zombie. Probe nonblocking and run the same death path.
  for (Member& m : members_) {
    if (!m.alive || m.pid <= 0 || m.reaped) continue;
    if (TryReap(m.pid, /*blocking=*/false)) {
      m.reaped = true;
      OnMemberDied(m.index);
    }
  }
}

void ProcessCluster::LivenessPass(Nanos now) {
  int32_t suspected = 0;
  for (Member& m : members_) {
    if (!m.alive || !m.hello || m.liveness_killed) continue;
    const Nanos silence = now - m.last_heartbeat;
    switch (core::JudgeHeartbeat(silence, options_.liveness)) {
      case core::Liveness::kDead:
        JET_LOG(kWarn) << "member " << m.index << " silent for "
                       << silence / kNanosPerMilli << " ms; declaring it down";
        // A SIGSTOP'd process ignores everything but SIGKILL/SIGCONT; the
        // kill turns the hang into a death the EOF/reap paths handle.
        if (m.pid > 0) (void)::kill(m.pid, SIGKILL);
        m.liveness_killed = true;
        m.suspected = false;
        break;
      case core::Liveness::kSuspect:
        if (!m.suspected) {
          JET_LOG(kWarn) << "member " << m.index << " suspected (silent "
                         << silence / kNanosPerMilli << " ms)";
          m.suspected = true;
        }
        ++suspected;
        break;
      case core::Liveness::kFresh:
        break;
    }
  }
  suspected_gauge_.Set(suspected);
}

void ProcessCluster::RespawnPass(Nanos now) {
  if (!options_.respawn.enabled) return;
  if (restart_policy_.RestartDue(now)) {
    // One launch re-forks every casualty of the incident.
    restart_policy_.OnRestartLaunched(now);
    for (Member& m : members_) {
      if (m.alive) continue;
      JET_LOG(kWarn) << "respawning member " << m.index;
      if (Status s = SpawnMember(m.index); !s.ok()) {
        JET_LOG(kError) << "respawn of member " << m.index << " failed: " << s.ToString();
        if (!ChargeDeath(m.index, now)) return;
        continue;
      }
      ++respawns_;
      respawns_counter_.Add(1);
    }
  }
  // A respawned (or freshly spawned) process that never says Hello is as
  // dead as a crash: kill it so the reap scan charges the next incident.
  for (Member& m : members_) {
    if (m.alive && !m.hello && !m.liveness_killed && m.spawn_time > 0 &&
        now - m.spawn_time > kRejoinTimeout) {
      JET_LOG(kWarn) << "member " << m.index << " did not rejoin within "
                     << kRejoinTimeout / kNanosPerMilli
                     << " ms; killing it";
      if (m.pid > 0) (void)::kill(m.pid, SIGKILL);
      m.liveness_killed = true;
    }
  }
}

void ProcessCluster::EndInFlightSnapshot(bool commit) {
  ProcMsg outcome;
  outcome.type = ProcMsgType::kSnapshotAborted;
  outcome.epoch = epoch_;
  outcome.snapshot_id = snapshots_.in_flight();
  if (outcome.snapshot_id == 0) return;
  if (!commit) {
    snapshots_.Abort(Now());
  } else if (Status s = snapshots_.Commit(Now()); s.ok()) {
    outcome.type = ProcMsgType::kSnapshotCommitted;
    last_replica_holder_ = replica_member_;
  } else {
    JET_LOG(kError) << "snapshot commit failed: " << s.ToString();
  }
  Broadcast(outcome);
  replica_member_ = -1;
  replica_entries_sent_ = 0;
  replica_seal_sent_ = false;
  cv_.NotifyAll();
}

bool ProcessCluster::ChargeDeath(int32_t index, Nanos now) {
  if (restart_policy_.OnFailure(now).has_value()) return true;
  Fail("respawn budget exhausted (member " + std::to_string(index) +
       " died with no retries left)");
  return false;
}

void ProcessCluster::OnMemberDied(int32_t index) {
  Member& dead = members_[static_cast<size_t>(index)];
  if (!dead.alive) return;  // EOF and reap scan can both report the death
  JET_LOG(kWarn) << "member " << index << " (pid " << dead.pid << ") died";
  dead.alive = false;
  dead.hello = false;
  dead.suspected = false;
  RetireConn(dead);
  if (dead.pid > 0 && !dead.reaped) {
    // The process is gone (EOF proves it); the blocking reap returns
    // immediately, with EINTR retried and ECHILD tolerated.
    TryReap(dead.pid, /*blocking=*/true);
    dead.reaped = true;
  }
  if (shutting_down_ || phase_ == Phase::kDone || phase_ == Phase::kFailed) return;

  const bool was_participant = dead.node_id >= 0;
  dead.node_id = -1;
  if (options_.respawn.enabled && !ChargeDeath(index, Now())) return;

  if (phase_ == Phase::kInit || phase_ == Phase::kIdle) {
    // Bring-up (or between-jobs) death. With respawn on, the pending
    // respawn heals the membership and Start()/WaitForFullMembership
    // complete on the replacement's Hello; with respawn off, fail fast
    // instead of stalling until bring_up_timeout.
    if (!options_.respawn.enabled) {
      Fail("member " + std::to_string(index) + " died during bring-up");
    }
    return;
  }
  if (!was_participant) return;

  int32_t survivors = 0;
  for (const Member& m : members_) {
    if (m.alive && m.node_id >= 0) ++survivors;
  }
  if (survivors == 0 && !options_.respawn.enabled) {
    Fail("all members died");
    return;
  }

  if (phase_ == Phase::kRecovering) {
    // A second death while stopping: the dead member can no longer report
    // AttemptStopped; re-evaluate with the smaller survivor set.
    MaybeFinishRecovery();
    return;
  }

  // §4.4 recovery: abandon the in-flight snapshot, stop the attempt on
  // every survivor, and only then sweep + restore — the AttemptStopped
  // barrier drains everything the old attempt ever put on the wire. With
  // respawn enabled the restart additionally waits for every pending
  // rejoin, so the new attempt runs at full DOP.
  EndInFlightSnapshot(/*commit=*/false);
  phase_ = Phase::kRecovering;
  for (Member& m : members_) m.stopped = false;
  ProcMsg stop;
  stop.type = ProcMsgType::kStopAttempt;
  stop.epoch = epoch_;
  Broadcast(stop);
  if (survivors == 0) MaybeFinishRecovery();
}

bool ProcessCluster::AllParticipants(bool Member::*flag) const {
  for (const Member& m : members_) {
    if (m.alive && m.node_id >= 0 && !(m.*flag)) return false;
  }
  return true;
}

void ProcessCluster::MaybeFinishRecovery() {
  if (!AllParticipants(&Member::stopped)) return;
  if (options_.respawn.enabled) {
    // Full-DOP restart: hold the recovery until every dead member has been
    // re-forked *and* said Hello. Liveness guards the wait — a respawn
    // that never rejoins is killed, charged, and retried (or the budget
    // runs out and the cluster fails), so this cannot hang forever.
    for (const Member& m : members_) {
      if (!m.alive || !m.hello) return;
    }
  }
  store_.ClearInFlight(options_.job_id);
  auto restore = store_.LastCommitted(options_.job_id);
  if (!restore.ok()) {
    Fail("cannot read last committed snapshot: " + restore.status().ToString());
    return;
  }
  epoch_ += 1;
  StartAttempt(restore.value());
}

void ProcessCluster::StartAttempt(std::optional<imdg::SnapshotId> restore_snapshot) {
  // Plan-local node ids: rank among live members, in member-index order.
  std::vector<Member*> participants;
  for (Member& m : members_) {
    m.ready = false;
    m.done = false;
    m.acked = false;
    m.stopped = false;
    m.node_id = -1;
    if (m.alive && m.hello) {
      m.node_id = static_cast<int32_t>(participants.size());
      participants.push_back(&m);
    }
  }
  if (participants.empty()) {
    Fail("no live members to start the job on");
    return;
  }
  std::vector<std::string> data_paths;
  data_paths.reserve(participants.size());
  for (const Member* m : participants) data_paths.push_back(m->data_path);

  // Restore state is shipped whole to every member; each member routes the
  // entries to the processor instances it hosts (key ownership is a pure
  // function of key_hash, node_id and node_count).
  std::vector<ProcMsg> restore_msgs;
  if (restore_snapshot.has_value()) {
    for (int32_t vertex = 0; vertex < kWindowedCountVertexCount; ++vertex) {
      for (int32_t p = 0; p < imdg::kDefaultPartitionCount; ++p) {
        Status s = store_.ReadEntries(
            options_.job_id, *restore_snapshot, vertex, p,
            [this, vertex, &restore_msgs](imdg::SnapshotStateEntry entry) {
              ProcMsg m;
              m.type = ProcMsgType::kRestoreEntry;
              m.epoch = epoch_;
              m.snapshot_id = 0;  // identity irrelevant on restore
              m.vertex_id = vertex;
              m.writer_index = entry.writer_index;
              m.key_hash = entry.key_hash;
              m.key = std::move(entry.key);
              m.value = std::move(entry.value);
              restore_msgs.push_back(std::move(m));
            });
        if (!s.ok()) {
          Fail("restore read failed: " + s.ToString());
          return;
        }
      }
    }
    JET_LOG(kWarn) << "attempt " << epoch_ << ": restoring " << restore_msgs.size()
                   << " entries from snapshot " << *restore_snapshot << " on "
                   << participants.size() << " members";
  }

  ProcMsg start;
  start.type = ProcMsgType::kStartJob;
  start.epoch = epoch_;
  start.job_name = kWindowedCountJobName;
  start.node_count = static_cast<int32_t>(participants.size());
  start.clock_anchor = SharedMonotonicClock::RawNow();
  start.threads = options_.threads_per_member;
  start.events_per_second = options_.job_params.events_per_second;
  start.duration = options_.job_params.duration;
  start.key_count = options_.job_params.key_count;
  start.window_size = options_.job_params.window_size;
  start.watermark_interval = options_.job_params.watermark_interval;
  start.restore_count = static_cast<int64_t>(restore_msgs.size());
  start.data_paths = data_paths;

  for (Member* m : participants) {
    start.node_id = m->node_id;
    (void)m->conn->SendFrame(EncodeControlMessage(start));
    for (const ProcMsg& entry : restore_msgs) {
      (void)m->conn->SendFrame(EncodeControlMessage(entry));
    }
  }
  phase_ = Phase::kStarting;
}

void ProcessCluster::Broadcast(const ProcMsg& msg) {
  const Bytes frame = EncodeControlMessage(msg);
  for (Member& m : members_) {
    if (m.alive && m.conn != nullptr) (void)m.conn->SendFrame(frame);
  }
}

void ProcessCluster::Fail(const std::string& why) {
  JET_LOG(kError) << "process cluster failed: " << why;
  phase_ = Phase::kFailed;
  failure_ = why;
  restart_policy_.OnFailed();
  cv_.NotifyAll();
}

}  // namespace jet::procmode
