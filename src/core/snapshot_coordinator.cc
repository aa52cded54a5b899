#include "core/snapshot_coordinator.h"

#include <set>
#include <utility>

#include "common/logging.h"

namespace jet::core {

void SnapshotCoordinator::BindMetrics(obs::MetricsRegistry* registry) {
  taken_gauge_ = registry->GetGauge("job.snapshots_taken");
  committed_gauge_ = registry->GetGauge("job.last_committed_snapshot");
  aborted_counter_ = registry->GetCounter("snapshot.aborted");
}

void SnapshotCoordinator::StartAttempt(int64_t first_id, Nanos now) {
  next_id_ = first_id;
  in_flight_ = 0;
  last_end_ = now;
}

int64_t SnapshotCoordinator::MaybeBegin(Nanos now) {
  if (in_flight_ != 0 || now < next_begin()) return 0;
  began_ = now;
  return in_flight_ = next_id_++;
}

Status SnapshotCoordinator::Commit(Nanos now) {
  Status s = store_->Commit(job_, in_flight_);
  if (!s.ok()) {
    Abort(now);
    return s;
  }
  last_committed_.store(in_flight_, std::memory_order_release);
  taken_gauge_.Set(taken_.fetch_add(1, std::memory_order_acq_rel) + 1);
  committed_gauge_.Set(in_flight_);
  in_flight_ = 0;
  last_end_ = now;
  return s;
}

void SnapshotCoordinator::Abort(Nanos now) {
  if (in_flight_ == 0) return;
  store_->Abort(job_, in_flight_);
  aborted_.fetch_add(1, std::memory_order_acq_rel);
  aborted_counter_.Add(1);
  in_flight_ = 0;
  last_end_ = now;
}

SnapshotStep StepSnapshot(SnapshotCoordinator* coordinator, SnapshotControl* control,
                          const SnapshotParticipants& participants, Nanos now) {
  constexpr Nanos kInFlightPoll = 100 * kNanosPerMicro;
  SnapshotStep step;
  const int64_t id = coordinator->in_flight();
  if (id != 0 && participants.AllCompleted(id)) {
    Status s = coordinator->Commit(now);
    if (s.ok()) {
      control->committed.store(id, std::memory_order_release);
    } else {
      JET_LOG(kError) << "snapshot commit failed: " << s.ToString();
      control->aborted.store(id, std::memory_order_release);
    }
  } else if (coordinator->Overdue(now)) {
    // Drop the epoch and re-arm the next one instead of waiting forever.
    coordinator->Abort(now);
    control->aborted.store(id, std::memory_order_release);
    step.watchdog_aborted = true;
  }
  if (coordinator->in_flight() == 0) {
    const int64_t begun = coordinator->MaybeBegin(now);
    if (begun != 0) control->requested.store(begun, std::memory_order_release);
  }
  step.next_due = coordinator->in_flight() != 0 ? now + kInFlightPoll
                                                : coordinator->next_begin();
  return step;
}

SnapshotWriterFn StoreSnapshotWriter(imdg::SnapshotStore* store, imdg::JobId job) {
  return [store, job](int64_t snapshot_id, VertexId vertex, int32_t writer_index,
                      StateEntry&& entry) {
    Status s = store->WriteEntry(
        job, snapshot_id,
        {vertex, writer_index, entry.key_hash, std::move(entry.key), std::move(entry.value)});
    if (!s.ok()) JET_LOG(kError) << "snapshot write failed: " << s.ToString();
    return s.ok();
  };
}

void SnapshotParticipants::Add(const ExecutionPlan& plan) {
  for (const auto& t : plan.tasklets()) {
    if (t->ParticipatesInSnapshots()) tasklets_.push_back(t.get());
  }
}

bool SnapshotParticipants::AllCompleted(int64_t id) const {
  for (const ProcessorTasklet* t : tasklets_) {
    if (t->completed_snapshot_id() < id) return false;
  }
  return true;
}

void RestoreRouter::Route(VertexId vertex, StateEntry entry) {
  for (size_t i = 0; i < infos_.size(); ++i) {
    const TaskletInfo& info = infos_[i];
    if (info.vertex == vertex &&
        static_cast<uint64_t>(info.global_index) ==
            entry.key_hash % static_cast<uint64_t>(info.total_parallelism)) {
      entries_[i].push_back(std::move(entry));
      return;
    }
  }
}

void RestoreRouter::Apply() {
  for (size_t i = 0; i < infos_.size(); ++i) {
    infos_[i].tasklet->SetRestoreEntries(std::exchange(entries_[i], {}));
  }
}

Status LoadSnapshotIntoPlan(ExecutionPlan* plan, imdg::SnapshotStore* store,
                            imdg::JobId job, int64_t snapshot_id) {
  RestoreRouter router(*plan);
  std::set<VertexId> vertices;
  for (const TaskletInfo& info : plan->tasklet_infos()) vertices.insert(info.vertex);
  for (VertexId vertex : vertices) {
    for (int32_t p = 0; p < imdg::kDefaultPartitionCount; ++p) {
      JET_RETURN_IF_ERROR(store->ReadEntries(
          job, snapshot_id, vertex, p, [&router, vertex](imdg::SnapshotStateEntry e) {
            router.Route(vertex, {e.key_hash, std::move(e.key), std::move(e.value)});
          }));
    }
  }
  router.Apply();
  return Status::OK();
}

}  // namespace jet::core
