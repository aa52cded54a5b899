#include "core/execution_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "common/idle_strategy.h"
#include "common/logging.h"

namespace jet::core {

ExecutionService::ExecutionService(int32_t thread_count, obs::EventLoopProfiler* profiler,
                                   Options options)
    : thread_count_(std::max<int32_t>(1, thread_count)),
      profiler_(profiler),
      options_(options),
      migrated_(std::make_shared<std::atomic<int64_t>>(0)) {
  lb_enabled_ = profiler_ != nullptr && thread_count_ > 1;
  if (lb_enabled_) {
    obs::MetricsRegistry* registry = profiler_->registry();
    rebalances_counter_ = registry->GetCounter("scheduler.rebalances");
    load_skew_gauge_ = registry->GetGauge("scheduler.worker_load_skew");
    // Several worker threads execute migrations, so the count cannot be a
    // single-writer registry counter; expose the shared atomic through a
    // callback instead (the shared_ptr keeps it alive even if the registry
    // outlives this service).
    auto migrated = migrated_;
    registry->RegisterCallback(
        "scheduler.migrated_tasklets", {},
        [migrated]() { return migrated->load(std::memory_order_acquire); },
        obs::MetricKind::kCounter);
  }
}

ExecutionService::ExecutionService(int32_t thread_count, obs::EventLoopProfiler* profiler)
    : ExecutionService(thread_count, profiler, Options()) {}

ExecutionService::~ExecutionService() {
  Cancel();
  AwaitCompletion();
}

Status ExecutionService::Start(std::vector<Tasklet*> tasklets) {
  if (started_.exchange(true)) return FailedPreconditionError("service already started");

  // Split cooperative from non-cooperative tasklets; the latter each get a
  // dedicated thread (§3.2). The round-robin spread is only the *initial*
  // placement — the rebalance pass corrects it against observed load.
  std::vector<std::vector<RunEntry>> per_thread(static_cast<size_t>(thread_count_));
  std::vector<RunEntry> dedicated;
  size_t cursor = 0;
  int32_t cooperative_count = 0;
  for (Tasklet* t : tasklets) {
    if (t->IsCooperative()) {
      per_thread[cursor % static_cast<size_t>(thread_count_)].push_back(
          RunEntry{t, nullptr, nullptr});
      ++cursor;
      ++cooperative_count;
    } else {
      dedicated.push_back(RunEntry{t, nullptr, nullptr});
    }
  }
  lb_armed_ = lb_enabled_ && cooperative_count >= 2;
  live_cooperative_.store(cooperative_count, std::memory_order_release);

  for (int32_t w = 0; w < thread_count_; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }

  // Register every tasklet with the profiler before any worker thread
  // exists, so initial registration never races with the loops below.
  // Cooperative workers are numbered 0..thread_count-1; dedicated threads
  // continue on. (Migration re-registers under the new worker's tag — that
  // is safe at runtime because Register is mutex-protected and the new
  // slot's writer is ordered by the migration handoff.)
  if (profiler_ != nullptr) {
    int32_t worker = 0;
    for (auto& group : per_thread) {
      for (RunEntry& entry : group) {
        entry.profile = profiler_->Register(entry.tasklet->name(), worker);
      }
      workers_[static_cast<size_t>(worker)]->profile = profiler_->RegisterWorker(worker);
      ++worker;
    }
    for (RunEntry& entry : dedicated) {
      entry.profile = profiler_->Register(entry.tasklet->name(), worker);
      ++worker;
    }
  }

  // Load-accounting records for cooperative tasklets.
  if (lb_armed_) {
    for (int32_t w = 0; w < thread_count_; ++w) {
      for (RunEntry& entry : per_thread[static_cast<size_t>(w)]) {
        auto record = std::make_unique<TaskletRecord>();
        record->tasklet = entry.tasklet;
        record->worker.store(w, std::memory_order_release);
        entry.record = record.get();
        records_.push_back(std::move(record));
      }
      workers_[static_cast<size_t>(w)]->tasklet_count.store(
          static_cast<int32_t>(per_thread[static_cast<size_t>(w)].size()),
          std::memory_order_release);
    }
  }

  for (int32_t w = 0; w < thread_count_; ++w) {
    auto& group = per_thread[static_cast<size_t>(w)];
    // Without load balancing, a worker with no tasklets would never gain
    // any — keep the legacy behavior of not spawning it. With balancing
    // armed, every worker must run so it can adopt migrants.
    if (group.empty() && !lb_armed_) continue;
    active_workers_.fetch_add(1, std::memory_order_acq_rel);
    threads_.emplace_back([this, w, group = std::move(group)]() mutable {
      CooperativeWorkerLoop(w, std::move(group));
    });
  }
  for (RunEntry& entry : dedicated) {
    active_workers_.fetch_add(1, std::memory_order_acq_rel);
    threads_.emplace_back([this, entry]() { DedicatedWorkerLoop(entry); });
  }
  if (lb_armed_ && options_.rebalance_interval > 0) {
    threads_.emplace_back([this]() { RebalanceLoop(); });
  }
  return Status::OK();
}

void ExecutionService::RecordError(const Status& status) {
  jet::MutexLock lock(error_mutex_);
  if (first_error_.ok()) first_error_ = status;
}

void ExecutionService::InitTasklet(const RunEntry& entry) {
  Status s = entry.tasklet->Init();
  if (!s.ok()) {
    RecordError(s);
    cancelled_.store(true, std::memory_order_release);
  }
}

TaskletProgress ExecutionService::TimedCall(RunEntry& entry) {
  if (entry.profile == nullptr && entry.record == nullptr) return entry.tasklet->Call();
  const Clock& clock = profiler_->clock();
  Nanos start = clock.Now();
  TaskletProgress p = entry.tasklet->Call();
  Nanos end = clock.Now();
  if (entry.profile != nullptr) entry.profile->RecordCall(start, end);
  if (entry.record != nullptr) {
    // jet-verify: allow(single-writer) — single-writer cell: only the
    // hosting worker writes (the inner load is relaxed, the store is
    // release); handoffs are ordered by the mailbox mutexes
    entry.record->busy_nanos.store(
        entry.record->busy_nanos.load(std::memory_order_relaxed) + (end - start),
        std::memory_order_release);
  }
  return p;
}

bool ExecutionService::AdoptIncoming(int32_t worker_index, std::vector<RunEntry>* round) {
  WorkerState& ws = *workers_[static_cast<size_t>(worker_index)];
  std::vector<RunEntry> migrants;
  {
    jet::MutexLock lock(ws.mailbox_mutex);
    if (ws.incoming.empty()) return false;
    migrants.swap(ws.incoming);
  }
  for (RunEntry& m : migrants) {
    // Adoption point: from here on this thread is the single owner. The
    // record's worker field is what the next rebalance pass reads, so a
    // stale order issued against the old worker self-heals.
    if (m.record != nullptr) {
      m.record->worker.store(worker_index, std::memory_order_release);
      m.record->adoptions.fetch_add(1, std::memory_order_acq_rel);
    }
    // Re-register transferable per-worker state (partition ownership
    // claims) under this worker before the first Call() touches it. The
    // mailbox mutex already ordered PrepareWorkerHandoff() before us.
    m.tasklet->OnWorkerAdopted(worker_index);
    round->push_back(m);
  }
  return true;
}

void ExecutionService::ExecuteMigrationOrders(int32_t worker_index,
                                              std::vector<RunEntry>* round) {
  WorkerState& ws = *workers_[static_cast<size_t>(worker_index)];
  std::vector<MigrationOrder> orders;
  {
    jet::MutexLock lock(ws.mailbox_mutex);
    if (ws.orders.empty()) return;
    orders.swap(ws.orders);
  }
  for (MigrationOrder& order : orders) {
    if (order.dest_worker == worker_index || order.dest_worker < 0 ||
        order.dest_worker >= static_cast<int32_t>(workers_.size())) {
      continue;
    }
    auto it = std::find_if(round->begin(), round->end(), [&](const RunEntry& e) {
      return e.tasklet == order.tasklet;
    });
    if (it == round->end()) continue;  // stale: tasklet finished or moved on
    RunEntry moving = *it;
    round->erase(it);
    // Round boundary: no Call() in flight. Unbind every ownership guard on
    // this (the owning) thread, then publish through the destination
    // mailbox — the mutex provides the happens-before edge to the new
    // owner's first Call().
    moving.tasklet->PrepareWorkerHandoff();
    moving.profile = order.dest_profile;
    WorkerState& dest = *workers_[static_cast<size_t>(order.dest_worker)];
    {
      jet::MutexLock lock(dest.mailbox_mutex);
      dest.incoming.push_back(moving);
    }
    migrated_->fetch_add(1, std::memory_order_acq_rel);
  }
}

void ExecutionService::CooperativeWorkerLoop(int32_t worker_index,
                                             std::vector<RunEntry> tasklets) {
  WorkerState& ws = *workers_[static_cast<size_t>(worker_index)];
  // Initialize on the owning thread for cache affinity. Migrants arriving
  // later were already initialized by their first worker.
  for (RunEntry& entry : tasklets) InitTasklet(entry);
  BackoffIdleStrategy idle;
  std::vector<RunEntry> round = std::move(tasklets);
  // Round-robin over live tasklets (§3.2, Fig. 4).
  while (!cancelled_.load(std::memory_order_acquire)) {
    if (lb_armed_ && AdoptIncoming(worker_index, &round)) {
      ws.tasklet_count.store(static_cast<int32_t>(round.size()), std::memory_order_release);
      idle.Reset();
    }
    if (round.empty()) {
      if (!lb_armed_) break;  // legacy: no rebalancing, no future work
      // Stay parked, able to adopt migrants, until every cooperative
      // tasklet in the service is done.
      if (live_cooperative_.load(std::memory_order_acquire) == 0) break;
      MaybeStall();
      idle.Idle();
      continue;
    }
    MaybeStall();
    bool any_progress = false;
    size_t done_count = 0;
    Nanos round_start = 0;
    if (ws.profile != nullptr) round_start = profiler_->clock().Now();
    for (RunEntry& entry : round) {
      TaskletProgress p = TimedCall(entry);
      any_progress |= p.made_progress;
      if (p.done) {
        // Deferred removal (fairness): erasing here would shift the later
        // tasklets forward and hand them an extra Call() this round. Null
        // the slot, sweep after the round.
        if (entry.record != nullptr) entry.record->done.store(true, std::memory_order_release);
        entry.tasklet = nullptr;
        entry.profile = nullptr;
        entry.record = nullptr;
        ++done_count;
      }
    }
    if (ws.profile != nullptr) {
      ws.profile->RecordRound(profiler_->clock().Now() - round_start);
    }
    if (done_count > 0) {
      round.erase(std::remove_if(round.begin(), round.end(),
                                 [](const RunEntry& e) { return e.tasklet == nullptr; }),
                  round.end());
      const auto finished = static_cast<int32_t>(done_count);
      if (live_cooperative_.fetch_sub(finished, std::memory_order_acq_rel) == finished) {
        // The last cooperative tasklet is done: wake the rebalance thread
        // now rather than at its next interval, so joining it does not
        // wait out the interval. Notifying under its mutex means the
        // wakeup cannot fall between its check and its wait.
        jet::MutexLock lock(rebalance_cv_mutex_);
        rebalance_cv_.NotifyAll();
      }
    }
    if (lb_armed_) {
      ExecuteMigrationOrders(worker_index, &round);
      ws.tasklet_count.store(static_cast<int32_t>(round.size()), std::memory_order_release);
    }
    if (any_progress) {
      idle.Reset();
    } else {
      idle.Idle();
    }
  }
  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

void ExecutionService::DedicatedWorkerLoop(RunEntry entry) {
  InitTasklet(entry);
  BackoffIdleStrategy idle(/*max_spins=*/0, /*max_yields=*/1,
                           /*min_park_nanos=*/10'000, /*max_park_nanos=*/1'000'000);
  while (!cancelled_.load(std::memory_order_acquire)) {
    MaybeStall();
    TaskletProgress p = TimedCall(entry);
    if (p.done) break;
    if (p.made_progress) {
      idle.Reset();
    } else {
      idle.Idle();
    }
  }
  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

void ExecutionService::RebalanceLoop() {
  const auto interval = std::chrono::nanoseconds(options_.rebalance_interval);
  jet::UniqueMutexLock lock(rebalance_cv_mutex_);
  while (!cancelled_.load(std::memory_order_acquire) &&
         live_cooperative_.load(std::memory_order_acquire) > 0) {
    rebalance_cv_.WaitFor(rebalance_cv_mutex_, interval);
    if (cancelled_.load(std::memory_order_acquire) ||
        live_cooperative_.load(std::memory_order_acquire) == 0) {
      break;
    }
    lock.Unlock();
    TriggerRebalance();
    lock.Lock();
  }
}

void ExecutionService::TriggerRebalance() {
  if (!lb_armed_ || !started_.load(std::memory_order_acquire)) return;
  jet::MutexLock lock(rebalance_mutex_);

  // Sample per-tasklet busy time since the previous pass and aggregate per
  // worker. Records of finished tasklets still advance their delta base but
  // drop out of the placement model.
  struct Candidate {
    TaskletRecord* record;
    int64_t delta;
    int32_t worker;
  };
  const auto n_workers = static_cast<int32_t>(workers_.size());
  std::vector<int64_t> load(static_cast<size_t>(n_workers), 0);
  std::vector<int32_t> count(static_cast<size_t>(n_workers), 0);
  std::vector<Candidate> candidates;
  candidates.reserve(records_.size());
  for (auto& record_ptr : records_) {
    TaskletRecord& record = *record_ptr;
    const int64_t busy = record.busy_nanos.load(std::memory_order_acquire);
    int64_t delta = busy - record.last_busy_nanos;
    record.last_busy_nanos = busy;
    // A tasklet that migrated since the previous pass accrued its delta on
    // *two* workers; attributing the whole of it to the current worker
    // fabricates a hot spot there and ping-pongs the tasklet back. Zero the
    // delta for this pass — it still counts toward `count`, the next pass
    // sees a clean single-worker sample.
    const uint32_t adoptions = record.adoptions.load(std::memory_order_acquire);
    if (adoptions != record.last_adoptions) {
      record.last_adoptions = adoptions;
      delta = 0;
    }
    if (record.done.load(std::memory_order_acquire)) continue;
    const int32_t w = record.worker.load(std::memory_order_acquire);
    if (w < 0 || w >= n_workers) continue;
    load[static_cast<size_t>(w)] += delta;
    count[static_cast<size_t>(w)] += 1;
    candidates.push_back(Candidate{&record, delta, w});
  }
  if (candidates.empty()) return;

  auto hottest = [&]() {
    return static_cast<size_t>(
        std::max_element(load.begin(), load.end()) - load.begin());
  };
  auto coldest = [&]() {
    return static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
  };

  // Export the observed skew (hot/cold busy ratio, permille) before any
  // corrective moves so the gauge reflects what the pass actually saw.
  {
    const int64_t hi = load[hottest()];
    const int64_t lo = load[coldest()];
    int64_t skew_permille;
    if (hi <= 0) {
      skew_permille = 1000;
    } else if (lo <= 0) {
      skew_permille = std::numeric_limits<int32_t>::max();
    } else {
      skew_permille = hi * 1000 / lo;
    }
    load_skew_gauge_.Set(skew_permille);
  }

  // Greedy: while the skew threshold is exceeded, move the tasklet of the
  // hottest worker whose load lands closest to the midpoint of the
  // hot/cold gap. Only strict improvements are admitted (0 < delta < gap:
  // the new imbalance |gap - 2*delta| is then < gap), so the canonical
  // two-equal-heavies case splits perfectly while a move that would merely
  // flip the imbalance is rejected.
  int64_t issued = 0;
  for (size_t guard = 0; guard < candidates.size(); ++guard) {
    const size_t hot = hottest();
    const size_t cold = coldest();
    const int64_t hi = load[hot];
    const int64_t lo = load[cold];
    if (hi < options_.min_hot_load) break;
    if (count[hot] < 2) break;
    if (static_cast<double>(hi) <=
        options_.skew_threshold * static_cast<double>(std::max<int64_t>(lo, 1))) {
      break;
    }
    const int64_t gap = hi - lo;
    Candidate* best = nullptr;
    int64_t best_dist = 0;
    for (Candidate& c : candidates) {
      if (c.worker != static_cast<int32_t>(hot)) continue;
      if (c.delta <= 0 || c.delta >= gap) continue;
      int64_t dist = 2 * c.delta - gap;
      if (dist < 0) dist = -dist;
      if (best == nullptr || dist < best_dist) {
        best = &c;
        best_dist = dist;
      }
    }
    if (best == nullptr) break;

    // Pre-register the destination profile here (any-thread-safe), so the
    // source worker's handoff is pointer swaps only.
    obs::EventLoopProfiler::TaskletProfile* dest_profile =
        profiler_->Register(best->record->tasklet->name(), static_cast<int32_t>(cold));
    {
      WorkerState& src = *workers_[hot];
      jet::MutexLock mailbox_lock(src.mailbox_mutex);
      src.orders.push_back(MigrationOrder{best->record->tasklet,
                                          static_cast<int32_t>(cold), dest_profile});
    }
    load[hot] -= best->delta;
    load[cold] += best->delta;
    count[hot] -= 1;
    count[cold] += 1;
    best->worker = static_cast<int32_t>(cold);
    ++issued;
  }
  if (issued > 0) {
    rebalances_total_.fetch_add(1, std::memory_order_acq_rel);
    rebalances_counter_.Add(1);
  }
}

void ExecutionService::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  rebalance_cv_.NotifyAll();
}

void ExecutionService::InjectStall(Nanos duration) {
  if (duration <= 0) return;
  Nanos until = WallClock::Global().Now() + duration;
  // Keep the later deadline if stalls overlap.
  Nanos prev = stall_until_.load(std::memory_order_relaxed);
  while (prev < until &&
         !stall_until_.compare_exchange_weak(prev, until, std::memory_order_acq_rel)) {
  }
}

void ExecutionService::MaybeStall() const {
  if (stall_until_.load(std::memory_order_acquire) == 0) return;
  while (!cancelled_.load(std::memory_order_acquire) &&
         WallClock::Global().Now() < stall_until_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Status ExecutionService::AwaitCompletion() {
  // Join under its own mutex: concurrent waiters must not race on joined_
  // or double-join a thread. error_mutex_ stays out of the join section —
  // workers take it in RecordError, so holding it across join() would
  // deadlock.
  {
    jet::MutexLock join_lock(join_mutex_);
    if (!joined_) {
      for (auto& t : threads_) {
        if (t.joinable()) t.join();
      }
      joined_ = true;
    }
  }
  jet::MutexLock lock(error_mutex_);
  return first_error_;
}

}  // namespace jet::core
