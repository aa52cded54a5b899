#ifndef JETSIM_CORE_EXECUTION_SERVICE_H_
#define JETSIM_CORE_EXECUTION_SERVICE_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/tasklet.h"
#include "obs/event_loop_profiler.h"

namespace jet::core {

/// Runs tasklets on a fixed pool of cooperative worker threads (§3.2,
/// Fig. 4): "Jet deploys as many JVM threads as there are CPU cores ... a
/// thread takes over the execution of a number of tasklets. On each
/// thread, Jet runs a loop that executes its tasklets in a round-robin
/// fashion."
///
/// Cooperative tasklets are spread round-robin over `thread_count` worker
/// threads initially, then *rebalanced*: the service accounts each
/// tasklet's busy time (the same clock reads that feed the event-loop
/// profiler) and a periodic pass migrates tasklets from overloaded workers
/// to underloaded ones when the busy-time skew exceeds a threshold. The
/// paper's static whole-DAG-per-core layout leaves a worker stuck with two
/// heavy tasklets inflating the 99.99th percentile while siblings idle;
/// migration is what keeps Fig. 9's tail flat under uneven load.
///
/// Migration protocol (single-owner invariant, checked by
/// ThreadOwnershipGuard under JETSIM_DEBUG_CHECKS):
///  1. the rebalance pass registers the tasklet with the profiler under the
///     destination worker's tag and deposits a migration *order* in the
///     source worker's mailbox;
///  2. the source worker picks the order up at a round boundary — never
///     mid-Call — removes the tasklet from its round, calls
///     Tasklet::PrepareWorkerHandoff() (unbinding every ownership guard),
///     and pushes the tasklet into the destination worker's mailbox;
///  3. the destination worker adopts it at its next round start. Both
///     mailbox handoffs are mutex-protected, giving the happens-before edge
///     that makes the guard release sound and keeps every profile cell
///     single-writer.
/// A stale order (tasklet already finished or already moved on) is dropped
/// harmlessly; the next pass re-reads actual ownership and reissues.
///
/// Non-cooperative tasklets each get a dedicated thread with a gentler
/// idling policy and never migrate. When none of a worker's tasklets makes
/// progress the worker backs off progressively (spin -> yield -> park)
/// instead of burning the core.
class ExecutionService {
 public:
  /// Load-balancing knobs. Balancing runs only with a profiler (its clock
  /// provides the busy-time samples) and >= 2 workers.
  struct Options {
    /// Period of the background rebalance pass; 0 disables the background
    /// thread (TriggerRebalance() still works, which deterministic tests
    /// use).
    Nanos rebalance_interval = 50 * kNanosPerMilli;
    /// Migrate only when the hottest worker's busy time per period exceeds
    /// the coldest's by this factor.
    double skew_threshold = 1.5;
    /// Ignore skew while the hottest worker was busy less than this per
    /// period.
    Nanos min_hot_load = kNanosPerMilli;
  };

  /// `thread_count` cooperative workers (>= 1). When `profiler` is set the
  /// workers time every tasklet Call() against the cooperative budget
  /// (§3.2 "well under a millisecond") and feed per-tasklet call-duration
  /// histograms; it must outlive the service. Load balancing is active only
  /// with a profiler and >= 2 workers.
  ExecutionService(int32_t thread_count, obs::EventLoopProfiler* profiler,
                   Options options);
  explicit ExecutionService(int32_t thread_count,
                            obs::EventLoopProfiler* profiler = nullptr);

  ExecutionService(const ExecutionService&) = delete;
  ExecutionService& operator=(const ExecutionService&) = delete;

  ~ExecutionService();

  /// Starts executing `tasklets` (non-owning; they must outlive the
  /// service). May be called once.
  Status Start(std::vector<Tasklet*> tasklets);

  /// Requests cooperative cancellation: workers stop calling tasklets and
  /// exit their loops.
  void Cancel();

  /// Fault injection (testkit): freezes every worker loop for `duration`,
  /// modeling a stop-the-world GC pause on this member (§7.6 blames such
  /// pauses for recovery-latency tails). Workers finish their in-flight
  /// tasklet call, then stall; cancellation still interrupts the stall.
  void InjectStall(Nanos duration);

  /// Blocks until all tasklets are done (or cancellation took effect) and
  /// returns the first tasklet Init error, if any. Safe to call from
  /// multiple threads concurrently.
  Status AwaitCompletion();

  /// True once every tasklet has finished.
  bool IsComplete() const {
    return started_.load(std::memory_order_acquire) &&
           active_workers_.load(std::memory_order_acquire) == 0;
  }

  /// Runs one rebalance pass now (also what the background thread calls).
  /// No-op unless load balancing is active. Thread-safe; deterministic
  /// tests call it instead of waiting for the interval.
  void TriggerRebalance();

  /// Number of rebalance passes that issued at least one migration.
  int64_t rebalances() const { return rebalances_total_.load(std::memory_order_acquire); }

  /// Number of tasklet migrations actually executed by workers.
  int64_t migrated_tasklets() const {
    return migrated_ == nullptr ? 0 : migrated_->load(std::memory_order_acquire);
  }

  /// Whether the load balancer is active for this service.
  bool load_balancing_enabled() const { return lb_enabled_; }

  int32_t thread_count() const { return thread_count_; }

 private:
  /// Shared per-tasklet accounting record. `busy_nanos` is written only by
  /// the worker currently running the tasklet (plain load+store; handoffs
  /// are ordered by the mailbox mutexes) and read by the rebalance pass.
  /// `worker` is updated by the worker that adopts the tasklet.
  struct TaskletRecord {
    Tasklet* tasklet = nullptr;
    std::atomic<int64_t> busy_nanos{0};
    std::atomic<int32_t> worker{-1};
    std::atomic<bool> done{false};
    /// Bumped by the adopting worker on every migration handoff. The
    /// rebalance pass compares it against `last_adoptions` to detect that a
    /// tasklet moved since the previous pass: its busy-time delta straddles
    /// two workers and must not be attributed to either (doing so made the
    /// first post-migration pass see a phantom hot spot on the new worker
    /// and ping-pong the tasklet straight back).
    std::atomic<uint32_t> adoptions{0};
    /// Rebalancer-private: busy_nanos at the previous pass (delta base).
    int64_t last_busy_nanos = 0;
    /// Rebalancer-private: adoptions observed at the previous pass.
    uint32_t last_adoptions = 0;
  };

  /// A tasklet plus its (optional) profiler slot and accounting record.
  struct RunEntry {
    Tasklet* tasklet = nullptr;
    obs::EventLoopProfiler::TaskletProfile* profile = nullptr;
    TaskletRecord* record = nullptr;
  };

  /// "Move `tasklet` to `dest_worker`" — executed by the source worker at
  /// a round boundary; the profile was pre-registered by the rebalancer.
  struct MigrationOrder {
    Tasklet* tasklet = nullptr;
    int32_t dest_worker = -1;
    obs::EventLoopProfiler::TaskletProfile* dest_profile = nullptr;
  };

  /// Per-cooperative-worker shared state. The mailbox mutex is the only
  /// synchronization tasklet handoff needs.
  struct WorkerState {
    jet::Mutex mailbox_mutex;
    // migrants, pushed by source workers
    std::vector<RunEntry> incoming JET_GUARDED_BY(mailbox_mutex);
    // pushed by the rebalance pass
    std::vector<MigrationOrder> orders JET_GUARDED_BY(mailbox_mutex);
    /// Number of tasklets currently hosted (worker-written, pass-read).
    std::atomic<int32_t> tasklet_count{0};
    /// Round-duration slot; fixed before the worker thread starts.
    obs::EventLoopProfiler::WorkerProfile* profile = nullptr;
  };

  void CooperativeWorkerLoop(int32_t worker_index, std::vector<RunEntry> tasklets);
  void DedicatedWorkerLoop(RunEntry entry);
  void RebalanceLoop();
  void InitTasklet(const RunEntry& entry);
  /// Drains the worker's mailbox into `round`; returns true if any arrived.
  bool AdoptIncoming(int32_t worker_index, std::vector<RunEntry>* round);
  /// Executes pending migration orders against `round` (round boundary).
  void ExecuteMigrationOrders(int32_t worker_index, std::vector<RunEntry>* round);
  void RecordError(const Status& status);
  void MaybeStall() const;
  TaskletProgress TimedCall(RunEntry& entry);

  int32_t thread_count_;
  obs::EventLoopProfiler* profiler_;
  Options options_;
  bool lb_enabled_ = false;
  /// lb_enabled_ plus "there is actually something to balance" (>= 2
  /// cooperative tasklets); finalized in Start before any thread spawns.
  bool lb_armed_ = false;
  std::vector<std::thread> threads_;
  std::atomic<bool> cancelled_{false};
  std::atomic<Nanos> stall_until_{0};
  std::atomic<bool> started_{false};
  std::atomic<int32_t> active_workers_{0};
  /// Cooperative tasklets not yet done; workers stay parked (able to adopt
  /// migrants) until this reaches zero.
  std::atomic<int32_t> live_cooperative_{0};

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<TaskletRecord>> records_;

  /// Serializes rebalance passes (background thread + TriggerRebalance).
  jet::Mutex rebalance_mutex_;
  /// Wakes the background rebalance thread on Cancel.
  jet::Mutex rebalance_cv_mutex_;
  jet::CondVar rebalance_cv_;

  /// Executed-migration count. Workers (several threads) fetch_add it, so
  /// it cannot be a single-writer obs::Counter; the registry sees it
  /// through a callback gauge holding this shared_ptr (no dangling if the
  /// registry outlives the service).
  std::shared_ptr<std::atomic<int64_t>> migrated_;
  std::atomic<int64_t> rebalances_total_{0};
  /// Rebalancer-thread-only instruments (single writer under
  /// rebalance_mutex_).
  obs::Counter rebalances_counter_;
  obs::Gauge load_skew_gauge_;

  jet::Mutex join_mutex_;
  bool joined_ JET_GUARDED_BY(join_mutex_) = false;
  jet::Mutex error_mutex_;
  Status first_error_ JET_GUARDED_BY(error_mutex_);
};

}  // namespace jet::core

#endif  // JETSIM_CORE_EXECUTION_SERVICE_H_
