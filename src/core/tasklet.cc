#include "core/tasklet.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace jet::core {

namespace {
size_t TotalQueueCount(const std::vector<InboundStream>& inputs) {
  size_t n = 0;
  for (const auto& s : inputs) n += s.queues.size();
  return n;
}
}  // namespace

ProcessorTasklet::ProcessorTasklet(std::string name, std::unique_ptr<Processor> processor,
                                   ProcessorContext context,
                                   std::vector<InboundStream> inputs,
                                   std::vector<OutboundCollector> collectors,
                                   ProcessingGuarantee guarantee,
                                   SnapshotControl* snapshot_control)
    : name_(std::move(name)),
      processor_(std::move(processor)),
      context_(std::move(context)),
      outbox_(static_cast<int>(collectors.size()),
              static_cast<size_t>(context_.config.outbox_capacity)),
      inputs_(std::move(inputs)),
      collectors_(std::move(collectors)),
      guarantee_(guarantee),
      snapshot_control_(snapshot_control),
      coalescer_(TotalQueueCount(inputs_)) {
  context_.outbox = &outbox_;
  outbox_.AttachCollectors(collectors_);
  stream_queue_base_.reserve(inputs_.size());
  size_t base = 0;
  for (const auto& s : inputs_) {
    stream_queue_base_.push_back(base);
    base += s.queues.size();
  }
  eligible_.reserve(base);
  if (context_.metric_tags.tasklet.empty()) context_.metric_tags.tasklet = name_;
  if (context_.metric_tags.vertex < 0) context_.metric_tags.vertex = context_.vertex_id;
  RegisterMetrics();
}

void ProcessorTasklet::RegisterMetrics() {
  obs::MetricsRegistry* registry = context_.metrics;
  if (registry == nullptr) return;  // handles keep their standalone cells
  const obs::MetricTags& tags = context_.metric_tags;
  // idle_calls before calls: snapshots read in registration order, and
  // reading the idle count first keeps "idle_calls <= calls" true in every
  // racy poll (idle is bumped after calls within one Call()).
  items_processed_ = registry->GetCounter("tasklet.items_processed", tags);
  idle_calls_ = registry->GetCounter("tasklet.idle_calls", tags);
  calls_ = registry->GetCounter("tasklet.calls", tags);
  done_gauge_ = registry->GetGauge("tasklet.done", tags);
  completed_snapshot_gauge_ = registry->GetGauge("tasklet.completed_snapshot_id", tags);
  inbox_depth_gauge_ = registry->GetGauge("tasklet.inbox_depth", tags);
  outbox_depth_gauge_ = registry->GetGauge("tasklet.outbox_depth", tags);
  // SPSC occupancy of every inbound queue, summed at poll time:
  // SizeApprox() is safe from any thread, and the shared_ptr captures keep
  // the queues alive as long as the registry can poll them.
  std::vector<ItemQueuePtr> queues;
  for (const auto& s : inputs_) {
    for (const auto& q : s.queues) queues.push_back(q.queue);
  }
  if (!queues.empty()) {
    registry->RegisterCallback("tasklet.input_queue_depth", tags,
                               [queues = std::move(queues)]() {
                                 int64_t depth = 0;
                                 for (const auto& q : queues) {
                                   depth += static_cast<int64_t>(q->SizeApprox());
                                 }
                                 return depth;
                               });
  }
}

void ProcessorTasklet::UpdateQueueGauges() {
  inbox_depth_gauge_.Set(static_cast<int64_t>(inbox_.Size()));
  outbox_depth_gauge_.Set(static_cast<int64_t>(outbox_.PendingItems()));
}

void ProcessorTasklet::SetRestoreEntries(std::vector<StateEntry> entries) {
  restore_entries_ = std::move(entries);
  restore_index_ = 0;
  state_ = State::kRestore;
}

Status ProcessorTasklet::Init() {
  JET_DCHECK_SINGLE_THREAD(worker_guard_, "ProcessorTasklet worker (Init)");
  JET_RETURN_IF_ERROR(processor_->Init(&context_));
  cooperative_ = processor_->IsCooperative();
  if (state_ != State::kRestore) {
    state_ = inputs_.empty() ? State::kComplete : State::kProcess;
  }
  return Status::OK();
}

TaskletProgress ProcessorTasklet::Call() {
  // A tasklet is pinned to one worker; Call() from a second thread is a
  // scheduling bug (§3.2's cooperative model has no work stealing).
  JET_DCHECK_SINGLE_THREAD(worker_guard_, "ProcessorTasklet worker (Call)");
  calls_.Add(1);
  made_progress_ = false;
  if (!DrainOutbox()) {
    // Downstream queues are full: backpressure. Nothing else can run until
    // the outbox drains (§3.3 "tasklets back off as soon as all their
    // output queues are full").
    if (!made_progress_) idle_calls_.Add(1);
    UpdateQueueGauges();
    return {made_progress_, false};
  }
  switch (state_) {
    case State::kRestore:
      DoRestore();
      break;
    case State::kFinishRestore:
      DoFinishRestore();
      break;
    case State::kProcess:
      DoProcess();
      break;
    case State::kWatermark:
      DoWatermark();
      break;
    case State::kSnapshotSave:
      DoSnapshotSave();
      break;
    case State::kSnapshotBarrier:
      DoSnapshotBarrier();
      break;
    case State::kCompleteEdge:
      DoCompleteEdge();
      break;
    case State::kComplete:
      DoComplete();
      break;
    case State::kEmitDone:
      DoEmitDone();
      break;
    case State::kDone:
      return {false, true};
  }
  DrainOutbox();
  if (!made_progress_) idle_calls_.Add(1);
  UpdateQueueGauges();
  return {made_progress_, state_ == State::kDone};
}

void ProcessorTasklet::PrepareWorkerHandoff() {
  // Runs on the current owner thread at a round boundary: no Call() is in
  // flight, the new worker has not touched the tasklet yet, and the
  // scheduler's mailbox mutex orders everything below before the new
  // worker's first Call(). Unbind every single-thread role this tasklet
  // holds so the new worker can bind them on first use.
  worker_guard_.Release();
  inbox_.ReleaseOwner();
  outbox_.ReleaseOwner();
  for (auto& stream : inputs_) {
    for (auto& q : stream.queues) q.queue->ReleaseConsumerOwnership();
  }
  for (auto& collector : collectors_) collector.ReleaseProducerOwnership();
  processor_->ReleaseWorkerOwnership();
}

void ProcessorTasklet::OnWorkerAdopted(int32_t worker_index) {
  // Adopting-worker half of the migration handoff: move transferable
  // per-worker state (partition ownership claims) to the new worker before
  // the first Call() touches any owned state.
  processor_->AdoptWorkerOwnership(worker_index);
}

bool ProcessorTasklet::DrainOutbox() {
  // Items built in place go out first: they were offered before anything
  // in the buckets, and no other push may land on their ring until then.
  if (outbox_.PublishWindows() > 0) MarkProgress();
  for (int o = 0; o < outbox_.edge_count(); ++o) {
    // Runs of data items are *moved* into their target queues, a whole run
    // per index publish on isolated and local unicast edges.
    if (outbox_.DrainRuns(o, collectors_[static_cast<size_t>(o)]) > 0) MarkProgress();
  }
  const size_t written = outbox_.DrainSnapshot([this](StateEntry& entry) {
    // Entries are dropped without a snapshot store, and once the watchdog
    // abandoned their epoch (its map is gone).
    if (snapshot_control_ == nullptr || !snapshot_control_->write_entry ||
        snapshot_control_->aborted.load(std::memory_order_acquire) >= pending_snapshot_id_) {
      return true;
    }
    return snapshot_control_->write_entry(pending_snapshot_id_, context_.vertex_id,
                                          context_.meta.global_index, std::move(entry));
  });
  if (written > 0) MarkProgress();
  return outbox_.Empty();
}

void ProcessorTasklet::UpdateCoalescedWatermark() {
  Nanos coalesced = coalescer_.Coalesced();
  if (coalesced > last_forwarded_wm_ && (!wm_armed_ || coalesced > pending_wm_)) {
    pending_wm_ = coalesced;
    wm_armed_ = true;
    wm_processed_by_processor_ = false;
  }
}

void ProcessorTasklet::CheckBarrierAlignment() {
  if (snapshot_control_ == nullptr) return;
  int64_t id = -1;
  for (const auto& stream : inputs_) {
    for (const auto& q : stream.queues) {
      if (q.done) continue;
      if (q.pending_barrier < 0) return;  // some queue hasn't delivered it yet
      if (id < 0) {
        id = q.pending_barrier;
      } else if (q.pending_barrier != id) {
        return;  // mixed ids; wait for alignment of the newer snapshot
      }
    }
  }
  if (id < 0) return;  // all queues done; no snapshot to take
  pending_snapshot_id_ = id;
}

void ProcessorTasklet::FinishSnapshot() {
  for (auto& stream : inputs_) {
    for (auto& q : stream.queues) {
      q.pending_barrier = -1;
      q.blocked = false;
    }
  }
}

bool ProcessorTasklet::HandleControlItem(InboundStream& stream, size_t queue_index,
                                         const Item& item) {
  InboundQueue& q = stream.queues[queue_index];
  size_t global_index =
      stream_queue_base_[static_cast<size_t>(&stream - inputs_.data())] + queue_index;
  switch (item.kind) {
    case ItemKind::kWatermark:
      coalescer_.ObserveWatermark(global_index, item.timestamp);
      UpdateCoalescedWatermark();
      return true;  // watermark is a draining boundary
    case ItemKind::kBarrier:
      q.pending_barrier = item.timestamp;
      if (guarantee_ == ProcessingGuarantee::kExactlyOnce) {
        // Align: stop consuming this queue until all inputs delivered the
        // barrier (§4.4 "that channel needs to block and wait").
        q.blocked = true;
        CheckBarrierAlignment();
        return true;
      }
      // At-least-once: never block (§4.4), snapshot once all inputs saw it.
      CheckBarrierAlignment();
      return false;
    case ItemKind::kDone:
      q.done = true;
      coalescer_.MarkDone(global_index);
      UpdateCoalescedWatermark();
      CheckBarrierAlignment();
      return true;
    case ItemKind::kData:
      break;
  }
  return false;
}

bool ProcessorTasklet::FillInbox() {
  // Only streams at the minimum (= highest) priority among unfinished
  // streams are eligible; this lets hash-join build sides drain first.
  int32_t best_priority = std::numeric_limits<int32_t>::max();
  for (const auto& s : inputs_) {
    if (!s.AllDone()) best_priority = std::min(best_priority, s.priority);
  }
  if (best_priority == std::numeric_limits<int32_t>::max()) return false;

  // Enumerate eligible queues and rotate the starting point for fairness.
  eligible_.clear();
  for (size_t si = 0; si < inputs_.size(); ++si) {
    const auto& s = inputs_[si];
    if (s.priority != best_priority) continue;
    for (size_t qi = 0; qi < s.queues.size(); ++qi) {
      const auto& q = s.queues[qi];
      if (!q.done && !q.blocked) eligible_.push_back({si, qi});
    }
  }
  if (eligible_.empty()) return false;

  for (size_t attempt = 0; attempt < eligible_.size(); ++attempt) {
    QueueRef ref = eligible_[(fill_cursor_ + attempt) % eligible_.size()];
    InboundStream& stream = inputs_[ref.stream];
    InboundQueue& q = stream.queues[ref.queue];
    Item* front = q.queue->Peek();
    if (front == nullptr) continue;
    fill_cursor_ = (fill_cursor_ + attempt + 1) % eligible_.size();

    // Control items at the front are acted on here; the data run behind
    // them is handed to the processor in place, in its ring slots. Data or
    // control is decided on the item Peek returned, so an item the producer
    // pushes meanwhile is never taken for a control item.
    auto budget = static_cast<size_t>(kMaxInboxBatch);
    for (; front != nullptr && budget > 0; front = q.queue->Peek()) {
      if (front->IsData()) {
        std::span<Item> run =
            q.queue->FrontRun([](const Item& it) { return it.IsData(); }, budget);
        inbox_.AttachRun(run.data(), run.data() + run.size());
        run_queue_ = q.queue.get();
        current_ordinal_ = stream.ordinal;
        MarkProgress();
        return true;
      }
      Item control = std::move(*front);
      q.queue->PopFront();
      --budget;
      MarkProgress();
      if (HandleControlItem(stream, ref.queue, control)) break;
    }
    return false;  // control items only
  }
  return false;
}

bool ProcessorTasklet::AllStreamsDone() const {
  for (const auto& s : inputs_) {
    if (!s.AllDone()) return false;
  }
  return true;
}

void ProcessorTasklet::DoRestore() {
  int budget = 64;
  while (budget-- > 0 && restore_index_ < restore_entries_.size()) {
    Status s = processor_->RestoreFromSnapshot(restore_entries_[restore_index_]);
    JET_CHECK(s.ok()) << "snapshot restore failed in " << name_ << ": " << s.ToString();
    ++restore_index_;
    MarkProgress();
  }
  if (restore_index_ >= restore_entries_.size()) {
    restore_entries_.clear();
    state_ = State::kFinishRestore;
  }
}

void ProcessorTasklet::DoFinishRestore() {
  if (!processor_->FinishSnapshotRestore()) return;
  MarkProgress();
  state_ = inputs_.empty() ? State::kComplete : State::kProcess;
}

bool ProcessorTasklet::TakeControlTransition() {
  if (wm_armed_) {
    state_ = State::kWatermark;
  } else if (pending_snapshot_id_ >= 0) {
    resume_state_after_snapshot_ = State::kProcess;
    state_ = State::kSnapshotSave;
  } else {
    for (auto& s : inputs_) {
      if (s.AllDone() && !s.completed_delivered) {
        s.completed_delivered = true;
        edges_to_complete_.push_back(s.ordinal);
      }
    }
    if (!edges_to_complete_.empty()) {
      state_ = State::kCompleteEdge;
    } else if (AllStreamsDone()) {
      state_ = State::kComplete;
    } else {
      return false;
    }
  }
  MarkProgress();
  return true;
}

void ProcessorTasklet::DoProcess() {
  if (inbox_.Empty()) {
    // Control transitions fire only at a batch boundary, i.e. when the
    // processor has fully consumed the items that preceded the control
    // item in its queue.
    if (TakeControlTransition()) return;
    if (!FillInbox()) {
      // The fill may have consumed control items alone. A watermark,
      // snapshot or completion they armed is switched to on this same
      // Call, so its step runs on the next one.
      if (TakeControlTransition()) return;
      // Idle: give the processor its periodic time-driven slice (Jet's
      // tryProcess()).
      processor_->TryProcess();
      return;
    }
  }
  if (!inbox_.Empty()) {
    size_t before = inbox_.Size();
    processor_->Process(current_ordinal_, &inbox_);
    size_t after = inbox_.Size();
    // One tail publish frees what the processor consumed; the rest stays.
    run_queue_->Release(inbox_.TakeConsumedRun());
    items_processed_.Add(static_cast<int64_t>(before - after));
    if (after != before) MarkProgress();
  }
}

void ProcessorTasklet::DoWatermark() {
  if (!wm_processed_by_processor_) {
    if (!processor_->TryProcessWatermark(pending_wm_)) return;  // stopped at HasRoom()
    wm_processed_by_processor_ = true;
    MarkProgress();
    if (!DrainOutbox()) return;
  }
  if (!control_armed_) {
    pending_control_ = Item::WatermarkAt(pending_wm_);
    control_armed_ = true;
    control_progress_ = 0;
  }
  while (control_progress_ < collectors_.size()) {
    if (!collectors_[control_progress_].OfferControl(pending_control_)) return;
    ++control_progress_;
    MarkProgress();
  }
  last_forwarded_wm_ = pending_wm_;
  wm_armed_ = false;
  control_armed_ = false;
  state_ = State::kProcess;
  MarkProgress();
}

void ProcessorTasklet::DoSnapshotSave() {
  if (snapshot_control_ != nullptr &&
      snapshot_control_->aborted.load(std::memory_order_acquire) >= pending_snapshot_id_) {
    // The watchdog abandoned this epoch: its map is gone, so skip the
    // persist step, but still run the barrier step — downstream tasklets
    // are blocked on alignment and need the barrier to pass through.
    state_ = State::kSnapshotBarrier;
    control_armed_ = false;
    MarkProgress();
    return;
  }
  context_.current_snapshot_id = pending_snapshot_id_;
  if (!processor_->SaveToSnapshot()) {
    // Partial save: the snapshot bucket drains at the top of each Call.
    MarkProgress();
    return;
  }
  // The barrier step runs once the state entries are out: Call() drains
  // the outbox before every step.
  state_ = State::kSnapshotBarrier;
  control_armed_ = false;
  MarkProgress();
}

void ProcessorTasklet::DoSnapshotBarrier() {
  if (!control_armed_) {
    pending_control_ = Item::BarrierFor(pending_snapshot_id_);
    control_armed_ = true;
    control_progress_ = 0;
  }
  while (control_progress_ < collectors_.size()) {
    if (!collectors_[control_progress_].OfferControl(pending_control_)) return;
    ++control_progress_;
    MarkProgress();
  }
  if (!processor_->OnSnapshotCompleted(pending_snapshot_id_)) return;
  control_armed_ = false;
  // Release: publishes the epoch's state writes to the commit gate's
  // acquire load (SnapshotParticipants::AllCompleted).
  completed_snapshot_id_.store(pending_snapshot_id_, std::memory_order_release);
  completed_snapshot_gauge_.Set(pending_snapshot_id_);
  pending_snapshot_id_ = -1;
  FinishSnapshot();
  state_ = resume_state_after_snapshot_;
  MarkProgress();
}

void ProcessorTasklet::DoCompleteEdge() {
  while (!edges_to_complete_.empty()) {
    if (!processor_->CompleteEdge(edges_to_complete_.back())) return;
    edges_to_complete_.pop_back();
    MarkProgress();
  }
  state_ = State::kProcess;
}

void ProcessorTasklet::DoComplete() {
  // Source tasklets (no inputs) initiate snapshots when the coordinator
  // requests one; downstream tasklets are driven by barriers instead.
  if (snapshot_control_ != nullptr && inputs_.empty() &&
      processor_->InitiatesSnapshots()) {
    int64_t requested = snapshot_control_->requested.load(std::memory_order_acquire);
    if (requested > completed_snapshot_id_.load(std::memory_order_relaxed) &&
        requested > pending_snapshot_id_) {
      pending_snapshot_id_ = requested;
      resume_state_after_snapshot_ = State::kComplete;
      state_ = State::kSnapshotSave;
      MarkProgress();
      return;
    }
  }
  if (processor_->Complete()) {
    state_ = State::kEmitDone;
    control_armed_ = false;
    MarkProgress();
  }
}

void ProcessorTasklet::DoEmitDone() {
  if (!control_armed_) {
    pending_control_ = Item::Done();
    control_armed_ = true;
    control_progress_ = 0;
  }
  while (control_progress_ < collectors_.size()) {
    if (!collectors_[control_progress_].OfferControl(pending_control_)) return;
    ++control_progress_;
    MarkProgress();
  }
  control_armed_ = false;
  state_ = State::kDone;
  done_flag_.store(true, std::memory_order_release);
  done_gauge_.Set(1);
  MarkProgress();
}

}  // namespace jet::core
