#include "procmode/process_member.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace jet::procmode {

namespace {

constexpr Nanos kPumpPollInterval = 200 * kNanosPerMicro;
// The helper loop's wait with no attempt to pump and no heartbeat due.
constexpr Nanos kHelperIdleWait = 100 * kNanosPerMilli;

/// Retry policy for connecting to the coordinator's control socket and to
/// peers' data sockets. Peers are spawned together and their servers come
/// up before Hello, so in practice the first attempt succeeds; the ladder
/// (~10 s worth of attempts) covers a loaded CI machine and a respawned
/// member racing a recovering peer. Bounded attempts — a member must
/// declare the peer dead rather than spin forever.
BackoffOptions ConnectBackoff() {
  BackoffOptions b;
  b.retry_budget = 12;
  b.initial_backoff = 5 * kNanosPerMilli;
  b.max_backoff = 2 * kNanosPerSecond;
  return b;
}

}  // namespace

ProcessMember::~ProcessMember() {
  {
    jet::MutexLock lock(helper_mu_);
    helper_stop_ = true;
    helper_cv_.NotifyAll();
  }
  if (helper_.joinable()) helper_.join();
  TeardownAttempt();
  {
    jet::MutexLock lock(data_conns_mu_);
    for (auto& c : data_conns_) c->Close();
    data_conns_.clear();
  }
  if (data_server_ != nullptr) data_server_->Stop();
  if (control_ != nullptr) control_->Close();
}

Status ProcessMember::Run() {
  // Data server first: the Hello announcing its path is the coordinator's
  // signal that peers may connect.
  data_path_ =
      options_.work_dir + "/data-m" + std::to_string(options_.member_index) + ".sock";
  auto server = net::SocketServer::ListenUnix(data_path_);
  JET_RETURN_IF_ERROR(server.status());
  data_server_ = std::move(server.value());
  data_server_->Start([this](std::unique_ptr<net::SocketConnection> conn) {
    net::SocketConnection* raw = conn.get();
    raw->Start([this](Bytes frame) { DispatchDataFrame(std::move(frame)); });
    jet::MutexLock lock(data_conns_mu_);
    data_conns_.push_back(std::move(conn));
  });

  auto control = net::SocketConnection::ConnectUnixWithBackoff(
      options_.control_path, ConnectBackoff(),
      static_cast<uint64_t>(options_.member_index));
  JET_RETURN_IF_ERROR(control.status());
  control_ = std::move(control.value());
  control_->Start([this](Bytes frame) { HandleControlFrame(std::move(frame)); },
                  [this]() {
                    jet::MutexLock lock(queue_mu_);
                    control_lost_ = true;
                    queue_cv_.NotifyAll();
                  });

  ProcMsg hello;
  hello.type = ProcMsgType::kHello;
  hello.member_index = options_.member_index;
  hello.pid = static_cast<int64_t>(getpid());
  hello.data_path = data_path_;
  JET_RETURN_IF_ERROR(SendControl(hello));

  helper_ = std::thread([this]() { HelperLoop(); });

  // Serve control messages until Shutdown (or the coordinator vanished —
  // an orphaned member must not outlive the test that spawned it).
  for (;;) {
    ProcMsg msg;
    {
      jet::MutexLock lock(queue_mu_);
      queue_cv_.Wait(queue_mu_, [this]() JET_REQUIRES(queue_mu_) {
        return !queue_.empty() || control_lost_;
      });
      if (queue_.empty() && control_lost_) {
        TeardownAttempt();
        return UnavailableError("coordinator connection lost");
      }
      msg = std::move(queue_.front());
      queue_.pop_front();
    }
    Status s = Status::OK();
    switch (msg.type) {
      case ProcMsgType::kStartJob:
        s = HandleStartJob(std::move(msg));
        break;
      case ProcMsgType::kRestoreEntry:
        s = HandleRestoreEntry(std::move(msg));
        break;
      case ProcMsgType::kGo:
        s = HandleGo();
        break;
      case ProcMsgType::kStopAttempt: {
        const int64_t epoch = msg.epoch;
        TeardownAttempt();
        ProcMsg reply;
        reply.type = ProcMsgType::kAttemptStopped;
        reply.epoch = epoch;
        s = SendControl(reply);
        break;
      }
      case ProcMsgType::kShutdown:
        TeardownAttempt();
        return Status::OK();
      default:
        JET_LOG(kWarn) << "member got unexpected control message type "
                       << static_cast<int>(msg.type);
        break;
    }
    if (!s.ok()) {
      JET_LOG(kError) << "member " << options_.member_index
                      << " failed: " << s.ToString();
      TeardownAttempt();
      return s;
    }
  }
}

void ProcessMember::HandleControlFrame(Bytes frame) {
  auto msg = DecodeControlMessage(frame);
  if (!msg.ok()) {
    JET_LOG(kError) << "bad control frame: " << msg.status().ToString();
    return;
  }
  // Snapshot signals bypass the queue: they are single atomic stores the
  // tasklets poll, and they must not wait behind a structural message the
  // Run() thread is busy with.
  switch (msg->type) {
    case ProcMsgType::kSnapshotRequest:
    case ProcMsgType::kSnapshotCommitted:
    case ProcMsgType::kSnapshotAborted: {
      // Replica promotion is attempt-agnostic: snapshot ids are monotonic
      // across attempts and the replica's copy outlives the attempt.
      if (msg->type == ProcMsgType::kSnapshotCommitted) {
        replica_store_.OnCommitted(msg->snapshot_id);
      } else if (msg->type == ProcMsgType::kSnapshotAborted) {
        replica_store_.OnAborted(msg->snapshot_id);
      }
      auto attempt = current_attempt();
      if (attempt == nullptr || attempt->epoch != msg->epoch) return;
      core::SnapshotControl& control = attempt->snapshot_control;
      std::atomic<int64_t>* cell = &control.aborted;
      if (msg->type == ProcMsgType::kSnapshotRequest) cell = &control.requested;
      if (msg->type == ProcMsgType::kSnapshotCommitted) cell = &control.committed;
      cell->store(msg->snapshot_id, std::memory_order_release);
      return;
    }
    case ProcMsgType::kSnapshotReplicaEntry: {
      // Bounded work (one buffered insert) — safe on the I/O thread, and
      // FIFO with the seal that will count these entries.
      imdg::SnapshotStateEntry entry;
      entry.vertex_id = msg->vertex_id;
      entry.writer_index = msg->writer_index;
      entry.key_hash = msg->key_hash;
      entry.key = std::move(msg->key);
      entry.value = std::move(msg->value);
      replica_store_.AddEntry(msg->snapshot_id, std::move(entry));
      return;
    }
    case ProcMsgType::kSnapshotReplicaSeal: {
      if (replica_store_.Seal(msg->snapshot_id, msg->entry_count)) {
        ProcMsg ack;
        ack.type = ProcMsgType::kSnapshotReplicaAck;
        ack.epoch = msg->epoch;
        ack.snapshot_id = msg->snapshot_id;
        (void)control_->SendFrame(EncodeControlMessage(ack));
      } else {
        // Explicit negative ack: the coordinator aborts the snapshot the
        // moment this arrives, instead of burning its watchdog timeout on
        // a hole it could have known about immediately.
        ProcMsg reject;
        reject.type = ProcMsgType::kSnapshotReplicaReject;
        reject.epoch = msg->epoch;
        reject.snapshot_id = msg->snapshot_id;
        reject.entry_count = replica_store_.pending_entry_count(msg->snapshot_id);
        (void)control_->SendFrame(EncodeControlMessage(reject));
        JET_LOG(kError) << "replica seal mismatch for snapshot "
                        << msg->snapshot_id << ": expected " << msg->entry_count
                        << " entries, have " << reject.entry_count;
      }
      return;
    }
    default:
      EnqueueMsg(std::move(msg.value()));
      return;
  }
}

void ProcessMember::EnqueueMsg(ProcMsg msg) {
  jet::MutexLock lock(queue_mu_);
  queue_.push_back(std::move(msg));
  queue_cv_.NotifyAll();
}

Status ProcessMember::SendControl(const ProcMsg& msg) {
  return control_->SendFrame(EncodeControlMessage(msg));
}

Status ProcessMember::HandleStartJob(ProcMsg msg) {
  TeardownAttempt();  // a StartJob for epoch N+1 implies epoch N is gone

  auto attempt = std::make_shared<Attempt>();
  attempt->epoch = msg.epoch;
  attempt->node_id = msg.node_id;
  attempt->node_count = msg.node_count;
  attempt->params.events_per_second = msg.events_per_second;
  attempt->params.duration = msg.duration;
  attempt->params.key_count = msg.key_count;
  attempt->params.window_size = msg.window_size;
  attempt->params.watermark_interval = msg.watermark_interval;
  attempt->clock = std::make_unique<SharedMonotonicClock>(msg.clock_anchor);
  attempt->bus = std::make_unique<net::Network>();
  attempt->restore_remaining = msg.restore_count;

  // The sink ships every result to the coordinator the moment it is
  // processed — before the covering barrier is acked on the same FIFO
  // socket, which is what makes committed-snapshot results durable.
  auto control = control_;
  const int64_t epoch = msg.epoch;
  ResultEmitFn emit = [control, epoch](const core::WindowResult<int64_t>& r) {
    ProcMsg m;
    m.type = ProcMsgType::kSinkResult;
    m.epoch = epoch;
    m.result_key = r.key;
    m.window_start = r.window_start;
    m.window_end = r.window_end;
    m.result_value = r.value;
    (void)control->SendFrame(EncodeControlMessage(m));
  };
  JET_RETURN_IF_ERROR(
      BuildJobDag(msg.job_name, attempt->params, std::move(emit), &attempt->dag));

  // State entries stream to the coordinator's store as they are captured;
  // the ack that gates the commit follows them on the same socket.
  attempt->snapshot_control.write_entry =
      [control, epoch](int64_t snapshot_id, core::VertexId vertex, int32_t writer_index,
                       core::StateEntry&& entry) {
        ProcMsg m;
        m.type = ProcMsgType::kSnapshotEntry;
        m.epoch = epoch;
        m.snapshot_id = snapshot_id;
        m.vertex_id = vertex;
        m.writer_index = writer_index;
        m.key_hash = entry.key_hash;
        m.key = std::move(entry.key);
        m.value = std::move(entry.value);
        return control->SendFrame(EncodeControlMessage(m)).ok();
      };

  // Outbound data connections: one per peer node, fresh per attempt. Peer
  // data servers persist across attempts, so a survivor of a recovery
  // reconnects to the same paths.
  if (static_cast<int32_t>(msg.data_paths.size()) != msg.node_count) {
    return InvalidArgumentError("StartJob data path map does not match node count");
  }
  attempt->peer_conns.resize(static_cast<size_t>(msg.node_count));
  for (int32_t n = 0; n < msg.node_count; ++n) {
    if (n == attempt->node_id) continue;
    auto conn = net::SocketConnection::ConnectUnixWithBackoff(
        msg.data_paths[static_cast<size_t>(n)], ConnectBackoff(),
        static_cast<uint64_t>(options_.member_index) << 16 |
            static_cast<uint64_t>(n));
    JET_RETURN_IF_ERROR(conn.status());
    std::shared_ptr<net::SocketConnection> shared = std::move(conn.value());
    // Peers never write back on our outbound connection (their acks ride
    // their own outbound connection to us); Start() is still required to
    // drive the write side.
    shared->Start([](Bytes) {
      JET_LOG(kWarn) << "unexpected inbound frame on outbound data connection";
    });
    attempt->peer_conns[static_cast<size_t>(n)] = std::move(shared);
  }

  net::ExchangeOptions exchange_options;
  // Process-mode hops always pay real serialization; the flag is for
  // in-process executions (JobConfig::serialize_exchange_frames).
  exchange_options.serialize_frames = false;
  exchange_options.epoch = attempt->epoch;
  attempt->registry = std::make_shared<SocketExchangeRegistry>(
      attempt->bus.get(), exchange_options, attempt->node_id, attempt->peer_conns);

  core::MemberParams params;
  params.dag = &attempt->dag;
  params.node = core::NodeInfo{attempt->node_id, attempt->node_count};
  params.config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  params.threads = msg.threads;
  params.clock = attempt->clock.get();
  params.cancelled = &attempt->cancelled;
  params.snapshot_control = &attempt->snapshot_control;
  net::NetworkEdgeFactory factory(attempt->registry.get(), params);
  params.remote_edges = &factory;
  // StartJob carries no job id, so instruments are tagged by member only.
  params.tags.member = options_.member_index;
  auto member = core::MemberExecution::Create(params);
  JET_RETURN_IF_ERROR(member.status());
  attempt->member = std::move(member.value());
  if (attempt->restore_remaining > 0) {
    attempt->restore = std::make_unique<core::RestoreRouter>(*attempt->member->plan());
  }

  {
    jet::MutexLock lock(attempt_mu_);
    attempt_ = std::move(attempt);
  }
  // Restore entries (if any) stream in next; Ready goes out once the last
  // one is applied.
  auto current = current_attempt();
  if (current->restore_remaining == 0) return FinishBringUp();
  return Status::OK();
}

Status ProcessMember::HandleRestoreEntry(ProcMsg msg) {
  auto attempt = current_attempt();
  if (attempt == nullptr || attempt->epoch != msg.epoch || attempt->restore == nullptr) {
    return Status::OK();  // straggler of a superseded attempt
  }
  attempt->restore->Route(msg.vertex_id, core::StateEntry{msg.key_hash, std::move(msg.key),
                                                          std::move(msg.value)});
  if (--attempt->restore_remaining == 0) return FinishBringUp();
  return Status::OK();
}

Status ProcessMember::FinishBringUp() {
  auto attempt = current_attempt();
  if (attempt == nullptr) return InternalError("no attempt to bring up");
  if (attempt->restore != nullptr) {
    attempt->restore->Apply();
    attempt->restore.reset();
  }
  ProcMsg ready;
  ready.type = ProcMsgType::kReady;
  ready.epoch = attempt->epoch;
  return SendControl(ready);
}

Status ProcessMember::HandleGo() {
  auto attempt = current_attempt();
  if (attempt == nullptr) return InternalError("Go without an attempt");
  if (attempt->running) return Status::OK();
  attempt->running = true;

  JET_RETURN_IF_ERROR(attempt->member->Start());

  attempt->participants.Add(*attempt->member->plan());
  {
    jet::MutexLock lock(helper_mu_);
    pumped_ = attempt;
    helper_cv_.NotifyAll();
  }
  return Status::OK();
}

void ProcessMember::HelperLoop() {
  ProcMsg beat;
  beat.type = ProcMsgType::kHeartbeat;
  const Bytes beat_frame = EncodeControlMessage(beat);
  const Nanos interval = options_.heartbeat_interval;
  Nanos next_beat = 0;
  jet::MutexLock lock(helper_mu_);
  while (!helper_stop_) {
    const Nanos now = SharedMonotonicClock::RawNow();
    if (interval > 0 && now >= next_beat) {
      if (!control_->SendFrame(beat_frame).ok()) return;  // control gone
      next_beat = now + interval;
    }
    if (pumped_ != nullptr) PumpAttempt(*pumped_);
    Nanos wait = interval > 0 ? next_beat - now : kHelperIdleWait;
    if (pumped_ != nullptr) wait = std::min(wait, kPumpPollInterval);
    helper_cv_.WaitFor(helper_mu_, std::chrono::nanoseconds(wait));
  }
}

void ProcessMember::PumpAttempt(Attempt& attempt) {
  const int64_t id = attempt.snapshot_control.requested.load(std::memory_order_acquire);
  if (id > attempt.last_acked && attempt.participants.AllCompleted(id)) {
    ProcMsg ack;
    ack.type = ProcMsgType::kSnapshotAck;
    ack.epoch = attempt.epoch;
    ack.snapshot_id = id;
    (void)control_->SendFrame(EncodeControlMessage(ack));
    attempt.last_acked = id;
  }
  if (!attempt.done_sent && attempt.member->service()->IsComplete()) {
    ProcMsg done;
    done.type = ProcMsgType::kAttemptDone;
    done.epoch = attempt.epoch;
    (void)control_->SendFrame(EncodeControlMessage(done));
    attempt.done_sent = true;
  }
}

void ProcessMember::TeardownAttempt() {
  std::shared_ptr<Attempt> attempt;
  {
    jet::MutexLock lock(attempt_mu_);
    attempt = std::move(attempt_);
  }
  if (attempt == nullptr) return;
  {
    jet::MutexLock lock(helper_mu_);
    if (pumped_ == attempt) pumped_.reset();
  }
  attempt->cancelled.store(true, std::memory_order_release);
  if (attempt->running) {
    attempt->member->service()->Cancel();
    (void)attempt->member->service()->AwaitCompletion();
  }
  for (auto& conn : attempt->peer_conns) {
    if (conn != nullptr) conn->Close();
  }
  // In-flight inbound dispatches may still hold the shared_ptr; the
  // attempt is freed when the last one returns. Their frames are epoch-
  // filtered, so they can no longer mutate anything that matters.
}

void ProcessMember::DispatchDataFrame(Bytes frame) {
  auto decoded = net::DecodeFrame(frame);
  if (!decoded.ok()) {
    JET_LOG(kError) << "bad data frame: " << decoded.status().ToString();
    return;
  }
  auto attempt = current_attempt();
  if (attempt == nullptr || attempt->registry == nullptr) return;
  attempt->registry->RouteInbound(std::move(decoded.value()));
}

}  // namespace jet::procmode
