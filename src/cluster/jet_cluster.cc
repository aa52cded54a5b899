#include "cluster/jet_cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace jet::cluster {

namespace {

// The control loop's cadences: a tick that found mutex_ held retries after
// kLockRetry; an idle loop ticks at least every kIdleTick.
constexpr Nanos kLockRetry = kNanosPerMilli;
constexpr Nanos kIdleTick = 100 * kNanosPerMilli;
constexpr Nanos kNeverDue = std::numeric_limits<Nanos>::max();

obs::MetricTags JobTags(imdg::JobId job_id) {
  obs::MetricTags tags;
  tags.job = static_cast<int64_t>(job_id);
  return tags;
}

}  // namespace

// ---------------------------------------------------------------------------
// JetCluster
// ---------------------------------------------------------------------------

JetCluster::JetCluster(ClusterConfig config)
    : config_(config),
      grid_(config.backup_count),
      store_(&grid_),
      monitor_(&network_, config.supervisor.liveness, &clock_) {
  for (int32_t i = 0; i < config_.initial_nodes; ++i) {
    int32_t id = next_node_id_++;
    auto added = grid_.AddMember(id);
    JET_CHECK(added.ok()) << added.status().ToString();
    alive_nodes_.push_back(id);
    monitor_.AddMember(id);
  }
  control_ = std::thread([this]() { ControlLoop(); });
}

JetCluster::~JetCluster() {
  {
    jet::MutexLock lock(loop_mutex_);
    loop_stop_ = true;
    loop_cv_.NotifyAll();
  }
  control_.join();
  std::vector<ClusterJob*> jobs;
  {
    jet::MutexLock lock(mutex_);
    for (auto& j : jobs_) jobs.push_back(j.get());
  }
  for (ClusterJob* j : jobs) {
    j->Cancel();
    (void)j->Join();
  }
  network_.Shutdown();
}

Result<ClusterJob*> JetCluster::SubmitJob(const core::Dag* dag, core::JobConfig config,
                                          imdg::JobId job_id) {
  JET_RETURN_IF_ERROR(dag->Validate());
  // Jobs get the snapshot watchdog by default: an unbounded ack wait would
  // otherwise hang the epoch when a participant dies.
  if (config.snapshot_ack_timeout == 0) {
    config.snapshot_ack_timeout = config_.supervisor.snapshot_ack_timeout;
  }
  jet::MutexLock lock(mutex_);
  if (alive_nodes_.empty()) return UnavailableError("no alive nodes");
  auto job =
      std::unique_ptr<ClusterJob>(new ClusterJob(this, dag, config, job_id));
  JET_RETURN_IF_ERROR(job->StartAttempt(alive_nodes_, /*restore_snapshot=*/-1));
  jobs_.push_back(std::move(job));
  return jobs_.back().get();
}

Status JetCluster::KillNode(int32_t node_id) {
  jet::MutexLock lock(mutex_);
  auto it = std::find(alive_nodes_.begin(), alive_nodes_.end(), node_id);
  if (it == alive_nodes_.end()) return NotFoundError("node not alive");
  if (alive_nodes_.size() == 1) return FailedPreconditionError("cannot kill the last node");
  alive_nodes_.erase(it);

  // Fail-stop the member's workers immediately (its in-memory replicas and
  // execution state are gone).
  ForEachService(node_id, [](core::ExecutionService* s) { s->Cancel(); });
  monitor_.StopHeartbeats(node_id);
  // The failure detector needs time to declare the member dead before the
  // cluster reacts (heartbeat timeout).
  if (config_.failure_detection_delay > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config_.failure_detection_delay));
  }
  // Promote backup replicas of the lost partitions (§4.2, Fig. 6).
  JET_RETURN_IF_ERROR(grid_.RemoveMember(node_id));
  // The control loop restarts affected jobs from their last committed
  // snapshot (§4.4) once their backoff has passed.
  const Nanos now = clock_.Now();
  for (auto& job : jobs_) {
    if (job->StopForRecovery()) ChargeFailure(job.get(), now, "member failure");
  }
  Wake();
  return Status::OK();
}

Status JetCluster::CrashNode(int32_t node_id) {
  jet::MutexLock lock(mutex_);
  if (std::find(alive_nodes_.begin(), alive_nodes_.end(), node_id) ==
      alive_nodes_.end()) {
    return NotFoundError("node not alive");
  }
  // Halt the member's workers and silence its heartbeats — and that is
  // all. Eviction, backup promotion and job restarts are the control
  // plane's problem, driven by heartbeat staleness like a real death.
  ForEachService(node_id, [](core::ExecutionService* s) { s->Cancel(); });
  monitor_.StopHeartbeats(node_id);
  return Status::OK();
}

Status JetCluster::StallNode(int32_t node_id, Nanos duration) {
  jet::MutexLock lock(mutex_);
  if (std::find(alive_nodes_.begin(), alive_nodes_.end(), node_id) ==
      alive_nodes_.end()) {
    return NotFoundError("node not alive");
  }
  ForEachService(node_id,
                 [duration](core::ExecutionService* s) { s->InjectStall(duration); });
  return Status::OK();
}

void JetCluster::ForEachService(int32_t node_id,
                                const std::function<void(core::ExecutionService*)>& fn) {
  for (auto& job : jobs_) {
    jet::MutexLock job_lock(job->job_mutex_);
    if (job->attempt_ == nullptr) continue;
    const auto& nodes = job->attempt_->nodes;
    auto idx = std::find(nodes.begin(), nodes.end(), node_id);
    if (idx != nodes.end()) {
      fn(job->attempt_->members[static_cast<size_t>(idx - nodes.begin())]->service());
    }
  }
}

Result<int32_t> JetCluster::AddNode() {
  jet::MutexLock lock(mutex_);
  int32_t id = next_node_id_++;
  auto migrated = grid_.AddMember(id);
  if (!migrated.ok()) return migrated.status();
  alive_nodes_.push_back(id);
  monitor_.AddMember(id);
  // The scale-out restart is free (uncharged), launched by the control
  // loop once the membership is healthy.
  const Nanos now = clock_.Now();
  for (auto& job : jobs_) {
    if (job->StopForRecovery()) job->supervisor()->OnFreeRestart(now);
  }
  Wake();
  return id;
}

std::vector<int32_t> JetCluster::AliveNodes() const {
  jet::MutexLock lock(mutex_);
  return alive_nodes_;
}

JetCluster::Diagnostics JetCluster::DiagnosticsDump() const {
  std::vector<obs::MetricSnapshot> all;
  auto add = [&all](const char* name, obs::MetricKind kind, int64_t value) {
    obs::MetricSnapshot s;
    s.id.name = name;
    s.kind = kind;
    s.value = value;
    all.push_back(std::move(s));
  };
  int64_t owned_partitions = 0;
  int64_t ownership_migrations = 0;
  {
    jet::MutexLock lock(mutex_);
    for (const auto& job : jobs_) {
      auto snap = job->MetricSnapshots();
      all.insert(all.end(), std::make_move_iterator(snap.begin()),
                 std::make_move_iterator(snap.end()));
      owned_partitions += job->owned_partitions();
      ownership_migrations += job->ownership_transfers();
    }
    add("cluster.alive_members", obs::MetricKind::kGauge,
        static_cast<int64_t>(alive_nodes_.size()));
    add("cluster.suspected_members", obs::MetricKind::kGauge,
        static_cast<int64_t>(monitor_.SuspectedMembers().size()));
    add("cluster.has_quorum", obs::MetricKind::kGauge,
        QuorumSubset(alive_nodes_, last_report_).has_value() ? 1 : 0);
  }
  imdg::GridStats gs = grid_.stats();
  add("imdg.partition_count", obs::MetricKind::kGauge, grid_.partition_count());
  add("imdg.puts", obs::MetricKind::kCounter, gs.puts);
  add("imdg.gets", obs::MetricKind::kCounter, gs.gets);
  add("imdg.removes", obs::MetricKind::kCounter, gs.removes);
  add("imdg.replicated_bytes", obs::MetricKind::kCounter, gs.replicated_bytes);
  add("imdg.migrated_entries", obs::MetricKind::kCounter, gs.migrated_entries);
  // Capacity surfaces (primary replicas): how much state the grid holds
  // and how evenly the partitions carry it. The skew gauge is scaled by
  // 1000 (1000 = perfectly even) because the exposition value is integral.
  imdg::GridUsage gu = grid_.Usage();
  add("imdg.entries", obs::MetricKind::kGauge, gu.entries);
  add("imdg.bytes_approx", obs::MetricKind::kGauge, gu.bytes_approx);
  add("imdg.partition_max_entries", obs::MetricKind::kGauge, gu.max_partition_entries);
  add("imdg.partition_skew_x1000", obs::MetricKind::kGauge,
      static_cast<int64_t>(gu.partition_skew * 1000.0));
  add("imdg.snapshots_aborted", obs::MetricKind::kCounter, store_.aborted_count());
  // Single-writer ownership (ROADMAP item 3): partitions currently under
  // an exclusive owner (processor state domains + grid owned-access
  // handles) and how many claims migrated with their tasklet.
  add("grid.owned_partitions", obs::MetricKind::kGauge,
      owned_partitions + grid_.ownership().owned_count());
  add("grid.batched_partition_moves", obs::MetricKind::kCounter, gs.batched_moves);
  add("scheduler.ownership_migrations", obs::MetricKind::kCounter,
      ownership_migrations + grid_.ownership().transfers());
  add("net.messages_sent", obs::MetricKind::kCounter, network_.sent_count());
  add("net.messages_delivered", obs::MetricKind::kCounter, network_.delivered_count());
  add("net.messages_dropped", obs::MetricKind::kCounter, network_.dropped_count());

  Diagnostics d;
  d.prometheus = obs::RenderPrometheusText(all);
  d.json = obs::RenderJson(all);
  return d;
}

// ---------------------------------------------------------------------------
// The control loop, and the self-healing control plane it runs
// ---------------------------------------------------------------------------

void JetCluster::ControlLoop() {
  Nanos due = 0;
  while (true) {
    {
      jet::MutexLock lock(loop_mutex_);
      const Nanos wait = std::min(due - clock_.Now(), kIdleTick);
      if (wait > 0) {
        loop_cv_.WaitFor(loop_mutex_, std::chrono::nanoseconds(wait),
                         [this]() JET_REQUIRES(loop_mutex_) {
                           return loop_stop_ || loop_wake_;
                         });
      }
      if (loop_stop_) return;
      loop_wake_ = false;
    }
    due = Tick(clock_.Now());
  }
}

void JetCluster::Wake() {
  jet::MutexLock lock(loop_mutex_);
  loop_wake_ = true;
  loop_cv_.NotifyAll();
}

Nanos JetCluster::Tick(Nanos now) {
  // Heartbeats go out even while a user call holds mutex_; a changed
  // report waits for the lock.
  ClusterHealthMonitor::TickResult beat = monitor_.Tick(now);
  Nanos due = beat.next_due;
  if (beat.changed.has_value()) pending_report_ = std::move(beat.changed);
  if (!mutex_.try_lock()) return std::min(due, now + kLockRetry);
  due = std::min(due, TickLocked(now));
  mutex_.unlock();
  return due;
}

Nanos JetCluster::TickLocked(Nanos now) {
  if (pending_report_.has_value()) {
    last_report_ = *std::exchange(pending_report_, std::nullopt);
    HandleHealthReport(last_report_);
  }
  Nanos due = kNeverDue;
  for (auto& job : jobs_) {
    const core::SnapshotStep step = job->StepSnapshot(now);
    due = std::min(due, step.next_due);
    // A stuck or dead participant: the attempt is charged one
    // failure-class restart.
    if (step.watchdog_aborted) {
      if (job->StopForRecovery()) ChargeFailure(job.get(), now, "snapshot watchdog timeouts");
    } else if (job->AttemptBroken() && job->StopForRecovery()) {
      // A link that lost a frame: charged likewise, and relaunched no
      // sooner than the monitor suspects a cut that is still there, so the
      // new attempt does not lose a frame to the same cut and pay twice.
      const core::LivenessOptions& liveness = config_.supervisor.liveness;
      job->relaunch_not_before_ = now + liveness.suspect_after + liveness.heartbeat_interval;
      ChargeFailure(job.get(), now, "a lost exchange frame");
    }
  }
  return std::min(due, ReconcileJobs(clock_.Now()));
}

void JetCluster::HandleHealthReport(const HealthReport& report) {
  Nanos now = clock_.Now();

  // Re-admit evicted members whose heartbeats are clean again (partition
  // healed). This runs BEFORE the quorum check: readmission must be able
  // to restore quorum, or the cluster deadlocks — e.g. a 3-node cluster
  // that evicts one member over a broken link and then loses a second
  // member would be a permanent minority, with the healthy evicted member
  // locked out forever. Clean means clean in the full-mesh report (not
  // down, not suspected, no broken link), which every member observes, so
  // this cannot readmit into a minority side of a split.
  std::vector<int32_t> readmit;
  {
    std::set<int32_t> down(report.down.begin(), report.down.end());
    std::set<int32_t> suspected(report.suspected.begin(), report.suspected.end());
    for (int32_t m : evicted_) {
      if (down.count(m) != 0 || suspected.count(m) != 0) continue;
      bool broken = false;
      for (const auto& [a, b] : report.broken_links) {
        if (a == m || b == m) {
          broken = true;
          break;
        }
      }
      if (!broken) readmit.push_back(m);
    }
  }
  bool readmitted = false;
  for (int32_t m : readmit) {
    auto migrated = grid_.AddMember(m);
    if (!migrated.ok()) {
      JET_LOG(kError) << "re-admitting member " << m << ": "
                      << migrated.status().ToString();
      continue;
    }
    alive_nodes_.push_back(m);
    evicted_.erase(m);
    readmitted = true;
  }

  auto subset = QuorumSubset(alive_nodes_, report);
  // JETSIM_DEBUG_CONTROL=1 traces every membership decision on stderr —
  // the first thing to reach for when a chaos seed leaves a job parked.
  if (std::getenv("JETSIM_DEBUG_CONTROL") != nullptr) {
    std::string s = "[ctl] report=" + report.ToString() + " alive=";
    for (int32_t m : alive_nodes_) s += std::to_string(m) + ",";
    s += " quorum=";
    if (subset.has_value()) {
      for (int32_t m : *subset) s += std::to_string(m) + ",";
    } else {
      s += "NONE";
    }
    fprintf(stderr, "%s\n", s.c_str());
  }
  if (!subset.has_value()) {
    // No quorum: park every job until the partition heals. No membership
    // mutation — a minority must not promote backups or keep processing
    // while the majority might be doing the same (split-brain protection).
    for (auto& job : jobs_) {
      core::RestartPolicy* policy = job->supervisor();
      if (job->StopForRecovery() || policy->state() == core::JobState::kRestarting) {
        policy->OnSuspend();
      }
    }
    return;
  }

  // Evict members the quorum subset cannot reach (dead or cut off): promote
  // backups of their partitions and charge affected jobs one restart.
  std::set<int32_t> keep(subset->begin(), subset->end());
  std::vector<int32_t> to_evict;
  for (int32_t m : alive_nodes_) {
    if (keep.count(m) == 0) to_evict.push_back(m);
  }
  for (int32_t m : to_evict) {
    alive_nodes_.erase(std::find(alive_nodes_.begin(), alive_nodes_.end(), m));
    evicted_.insert(m);
    Status s = grid_.RemoveMember(m);
    if (!s.ok()) JET_LOG(kError) << "evicting member " << m << ": " << s.ToString();
  }
  if (!to_evict.empty()) {
    for (auto& job : jobs_) {
      // Finished, cancelled or parked jobs have nothing to restart.
      if (job->StopForRecovery()) ChargeFailure(job.get(), now, "member failure");
    }
  }

  // Resume parked jobs now that quorum holds; fold rejoins in as free
  // restarts (no budget charge — nothing failed, the membership grew).
  for (auto& job : jobs_) {
    core::RestartPolicy* policy = job->supervisor();
    core::JobState s = policy->state();
    if (s == core::JobState::kSuspended) {
      policy->OnFreeRestart(now);
      if (std::getenv("JETSIM_DEBUG_CONTROL") != nullptr)
        fprintf(stderr, "[ctl] resume job -> %s\n", core::JobStateName(policy->state()));
    } else if (readmitted && s == core::JobState::kRunning) {
      if (job->StopForRecovery()) policy->OnFreeRestart(now);
    }
  }
}

void JetCluster::ChargeFailure(ClusterJob* job, Nanos now, const char* what) {
  core::RestartPolicy* policy = job->supervisor();
  if (!policy->OnFailure(now).has_value() && policy->state() == core::JobState::kFailed) {
    job->FailTerminally(
        UnavailableError(std::string("retry budget exhausted recovering from ") + what));
  }
}

Nanos JetCluster::ReconcileJobs(Nanos now) {
  Nanos due = kNeverDue;
  for (auto& job : jobs_) {
    // A cancelled job is never restarted.
    if (job->job_cancelled_.load(std::memory_order_acquire)) continue;
    core::RestartPolicy* policy = job->supervisor();
    if (policy->state() == core::JobState::kRunning) {
      jet::MutexLock job_lock(job->job_mutex_);
      if (job->completed_naturally_.load(std::memory_order_acquire) ||
          (job->attempt_ != nullptr && job->attempt_->AllComplete() &&
           !job->attempt_->cancelled.load(std::memory_order_acquire))) {
        policy->OnCompleted();
      }
      continue;
    }
    if (policy->state() != core::JobState::kRestarting) continue;
    const Nanos launch_at = std::max(policy->restart_due(), job->relaunch_not_before_);
    if (now < launch_at) {
      due = std::min(due, launch_at);
      continue;
    }
    // Launch only into a healthy membership: restarting while a member is
    // down, suspected or cut off would burn the budget on a doomed attempt
    // (and the health event that reported it will reshape the membership
    // first anyway; the tick that acts on the next report comes back here).
    if (!AllHealthy(alive_nodes_, last_report_)) continue;
    Status st = job->RestartFromLastSnapshot();
    if (std::getenv("JETSIM_DEBUG_CONTROL") != nullptr)
      fprintf(stderr, "[ctl] restart launch: %s\n", st.ToString().c_str());
    if (st.ok()) {
      policy->OnRestartLaunched(now);
    } else {
      JET_LOG(kError) << "restart failed: " << st.ToString();
      job->FailTerminally(st);
    }
  }
  return due;
}

// ---------------------------------------------------------------------------
// ClusterJob
// ---------------------------------------------------------------------------

ClusterJob::ClusterJob(JetCluster* cluster, const core::Dag* dag,
                       core::JobConfig config, imdg::JobId job_id)
    : cluster_(cluster), dag_(dag), config_(config), job_id_(job_id),
      snapshots_(&cluster->store_, job_id, config.snapshot_interval,
                 config.snapshot_ack_timeout),
      supervisor_metrics_(JobTags(job_id)),
      supervisor_(cluster->config_.supervisor.restart, job_id, cluster->clock_.Now()) {
  supervisor_.BindMetrics(&supervisor_metrics_);
}

ClusterJob::~ClusterJob() {
  Cancel();
  (void)Join();
}

bool ClusterJob::Attempt::AllComplete() const {
  for (const auto& m : members) {
    if (!m->service()->IsComplete()) return false;
  }
  return true;
}

void ClusterJob::Attempt::Cancel() {
  cancelled.store(true, std::memory_order_release);
  for (auto& m : members) m->service()->Cancel();
}

void ClusterJob::Attempt::StopAll() {
  Cancel();
  for (auto& m : members) (void)m->service()->AwaitCompletion();
}

Status ClusterJob::StartAttempt(std::vector<int32_t> nodes, int64_t restore_snapshot) {
  auto attempt = std::make_shared<Attempt>();
  attempt->ownership = std::make_unique<imdg::OwnershipRegistry>();
  attempt->nodes = std::move(nodes);
  const auto node_count = static_cast<int32_t>(attempt->nodes.size());

  core::SnapshotControl* sc = nullptr;
  if (config_.guarantee != core::ProcessingGuarantee::kNone) {
    sc = &attempt->snapshot_control;
    sc->write_entry = core::StoreSnapshotWriter(&cluster_->store_, job_id_);
  }

  // Channels are tagged with physical member ids so testkit link faults
  // (partitions, drops, delay spikes) apply to this execution's traffic.
  net::ExchangeOptions exchange_options;
  exchange_options.serialize_frames = config_.serialize_exchange_frames;
  exchange_options.epoch = attempt_count_.load(std::memory_order_acquire);
  attempt->exchange = std::make_unique<net::ExchangeRegistry>(
      &cluster_->network_, attempt->nodes, exchange_options);
  for (int32_t i = 0; i < node_count; ++i) {
    core::MemberParams params;
    params.dag = dag_;
    params.node = core::NodeInfo{i, node_count};
    params.config = config_;
    params.threads = cluster_->config_.threads_per_node;
    params.clock = &WallClock::Global();
    params.cancelled = &attempt->cancelled;
    params.snapshot_control = sc;
    params.ownership = attempt->ownership.get();
    net::NetworkEdgeFactory factory(attempt->exchange.get(), params);
    params.remote_edges = &factory;
    // Instruments are tagged with the member's physical id, and every
    // member publishes its registry into the grid — the paper's Management
    // Center persistence path.
    params.tags.job = static_cast<int64_t>(job_id_);
    params.tags.member = attempt->nodes[static_cast<size_t>(i)];
    params.metrics_grid = &cluster_->grid_;
    auto member = core::MemberExecution::Create(params);
    if (!member.ok()) return member.status();
    attempt->members.push_back(std::move(member.value()));
  }
  // The coordinator's job gauges live on member 0's registry.
  snapshots_.BindMetrics(attempt->members[0]->registry());

  if (restore_snapshot >= 0) {
    for (auto& member : attempt->members) {
      JET_RETURN_IF_ERROR(core::LoadSnapshotIntoPlan(member->plan(), &cluster_->store_,
                                                     job_id_, restore_snapshot));
    }
  }
  // Uncommitted epochs of a previous attempt (or a watchdog-aborted one)
  // are garbage now; sweep them before the new attempt starts writing.
  cluster_->store_.ClearInFlight(job_id_);

  for (auto& member : attempt->members) JET_RETURN_IF_ERROR(member->Start());

  if (sc != nullptr) {
    for (const auto& member : attempt->members) attempt->participants.Add(*member->plan());
  }

  attempt_count_.fetch_add(1, std::memory_order_acq_rel);
  {
    jet::MutexLock lock(job_mutex_);
    snapshots_.StartAttempt(std::max<int64_t>(restore_snapshot, 0) + 1,
                            cluster_->clock_.Now());
    attempt_ = std::move(attempt);
    // A Cancel() that ran while this attempt was built found none to cancel.
    if (job_cancelled_.load(std::memory_order_acquire)) attempt_->Cancel();
  }
  cluster_->Wake();
  return Status::OK();
}

core::SnapshotStep ClusterJob::StepSnapshot(Nanos now) {
  jet::MutexLock lock(job_mutex_);
  if (config_.guarantee == core::ProcessingGuarantee::kNone || attempt_ == nullptr ||
      attempt_->AllComplete()) {
    return core::SnapshotStep{kNeverDue, false};
  }
  return core::StepSnapshot(&snapshots_, &attempt_->snapshot_control,
                            attempt_->participants, now);
}

void ClusterJob::StopCurrentAttempt() {
  std::shared_ptr<Attempt> attempt;
  {
    jet::MutexLock lock(job_mutex_);
    attempt = std::move(attempt_);
  }
  if (attempt != nullptr) {
    attempt->StopAll();
    if (attempt->ownership != nullptr) {
      ownership_transfers_base_.fetch_add(attempt->ownership->transfers(),
                                          std::memory_order_acq_rel);
    }
    jet::MutexLock lock(job_mutex_);
    completed_attempt_ = std::move(attempt);
  }
}

int64_t ClusterJob::owned_partitions() const {
  jet::MutexLock lock(job_mutex_);
  if (attempt_ == nullptr || attempt_->ownership == nullptr) return 0;
  return attempt_->ownership->owned_count();
}

int64_t ClusterJob::ownership_transfers() const {
  int64_t total = ownership_transfers_base_.load(std::memory_order_acquire);
  jet::MutexLock lock(job_mutex_);
  if (attempt_ != nullptr && attempt_->ownership != nullptr) {
    total += attempt_->ownership->transfers();
  }
  return total;
}

bool ClusterJob::StopForRecovery() {
  {
    jet::MutexLock lock(job_mutex_);
    if (attempt_ == nullptr) return false;  // already finished/cancelled
    // A naturally-finished job does not restart.
    bool complete = attempt_->AllComplete() &&
                    !attempt_->cancelled.load(std::memory_order_acquire);
    if (complete || job_cancelled_.load(std::memory_order_acquire)) return false;
  }
  StopCurrentAttempt();
  return true;
}

bool ClusterJob::AttemptBroken() const {
  jet::MutexLock lock(job_mutex_);
  return attempt_ != nullptr && attempt_->exchange->broken();
}

Status ClusterJob::RestartFromLastSnapshot() {
  int64_t restore = -1;
  if (config_.guarantee != core::ProcessingGuarantee::kNone) {
    auto committed = cluster_->store_.LastCommitted(job_id_);
    if (committed.ok() && committed->has_value()) restore = **committed;
  }
  // Note: the caller (JetCluster) holds the cluster mutex, so alive_nodes_
  // is stable here.
  return StartAttempt(cluster_->alive_nodes_, restore);
}

void ClusterJob::FailTerminally(Status error) {
  if (failed_.load(std::memory_order_acquire)) return;
  StopCurrentAttempt();
  first_error_ = std::move(error);
  failed_.store(true, std::memory_order_release);
  supervisor_.OnFailed();
}

std::vector<obs::MetricSnapshot> ClusterJob::MetricSnapshots() const {
  std::shared_ptr<Attempt> attempt;
  {
    jet::MutexLock lock(job_mutex_);
    attempt = attempt_ != nullptr ? attempt_ : completed_attempt_;
  }
  std::vector<obs::MetricSnapshot> out;
  if (attempt != nullptr) {
    for (const auto& member : attempt->members) {
      auto snap = member->registry()->Snapshot();
      out.insert(out.end(), std::make_move_iterator(snap.begin()),
                 std::make_move_iterator(snap.end()));
    }
  }
  auto snap = supervisor_metrics_.Snapshot();
  out.insert(out.end(), std::make_move_iterator(snap.begin()),
             std::make_move_iterator(snap.end()));
  return out;
}

core::JobMetrics ClusterJob::Metrics() const {
  core::JobMetrics m = core::JobMetricsFromSnapshot(MetricSnapshots());
  m.job_id = job_id_;
  m.snapshots_taken = snapshots_.taken();
  m.last_committed_snapshot = snapshots_.last_committed();
  m.attempt = attempt_count_.load(std::memory_order_acquire);
  return m;
}

Status ClusterJob::Join() {
  while (true) {
    if (failed_.load(std::memory_order_acquire)) return first_error_;
    std::shared_ptr<Attempt> current;
    {
      jet::MutexLock lock(job_mutex_);
      current = attempt_;
    }
    if (job_cancelled_.load(std::memory_order_acquire)) break;
    if (current == nullptr) {
      // Between attempts (restart in progress) or already stopped.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (current->AllComplete()) {
      jet::MutexLock lock(job_mutex_);
      if (attempt_ == current &&
          !current->cancelled.load(std::memory_order_acquire)) {
        completed_naturally_.store(true, std::memory_order_release);
        break;  // finished naturally
      }
      continue;  // superseded; wait for the new attempt
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StopCurrentAttempt();
  return first_error_;
}

void ClusterJob::Cancel() {
  job_cancelled_.store(true, std::memory_order_release);
  jet::MutexLock lock(job_mutex_);
  if (attempt_ != nullptr) attempt_->Cancel();
}

}  // namespace jet::cluster
