#ifndef JETSIM_CORE_TASKLET_H_
#define JETSIM_CORE_TASKLET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/debug_check.h"
#include "core/collectors.h"
#include "core/config.h"
#include "core/processor.h"
#include "core/watermark.h"
#include "obs/metrics_registry.h"

namespace jet::core {

/// Result of one tasklet invocation.
struct TaskletProgress {
  bool made_progress = false;
  bool done = false;
};

/// A small unit of computation cooperatively scheduled on a worker thread
/// (§3.2). A tasklet call performs a bounded amount of work and returns; it
/// must never block.
class Tasklet {
 public:
  virtual ~Tasklet() = default;

  /// Called once on the owning worker thread before the first Call.
  virtual Status Init() { return Status::OK(); }

  /// Performs one slice of work.
  virtual TaskletProgress Call() = 0;

  /// Non-cooperative tasklets get a dedicated thread (§3.2).
  virtual bool IsCooperative() const { return true; }

  /// Called by the scheduler on the *current* owner thread, between two
  /// Call()s (round boundary), right before this tasklet is handed to
  /// another cooperative worker. Implementations unbind every
  /// single-thread role the tasklet holds (ownership guards on queues,
  /// inbox/outbox, transport buffers) so the new worker can bind them. The
  /// scheduler provides the happens-before edge (mailbox mutex) between
  /// this call and the new worker's first Call().
  virtual void PrepareWorkerHandoff() {}

  /// Called by the adopting worker thread right after it received this
  /// tasklet from its mailbox (the counterpart of PrepareWorkerHandoff,
  /// ordered after it by the mailbox mutex). Implementations re-register
  /// transferable per-worker state — notably single-writer partition
  /// ownership claims, which migrate *with* the tasklet.
  virtual void OnWorkerAdopted(int32_t worker_index) { (void)worker_index; }

  /// Diagnostic name.
  virtual const std::string& name() const = 0;
};

/// Writes one snapshot state entry for `vertex` under the given snapshot
/// id; returns false if the store is temporarily unable to accept it.
/// `writer_index` is the emitting instance's global index — it
/// discriminates entries of instances that hold partial state for the
/// same key (e.g. the unicast-fed accumulate stage), which would otherwise
/// overwrite each other in the store; restore combines them.
using SnapshotWriterFn = std::function<bool(int64_t snapshot_id, VertexId vertex,
                                            int32_t writer_index, StateEntry&& entry)>;

/// Shared, lock-free coordination block between a job's snapshot
/// coordinator and its tasklets.
struct SnapshotControl {
  /// Snapshot id the coordinator wants taken (monotonic; 0 = none yet).
  /// Completion is reported per tasklet (completed_snapshot_id()).
  std::atomic<int64_t> requested{0};
  /// Highest snapshot id the coordinator has committed to the store.
  /// Acknowledging sources and transactional sinks poll this to release
  /// their pending work (§4.5).
  std::atomic<int64_t> committed{0};
  /// Highest snapshot id the coordinator's watchdog abandoned (0 = none).
  /// Tasklets still mid-way through an aborted snapshot skip the state
  /// persist step — the epoch's map is gone — but still forward the barrier
  /// so downstream alignment unblocks.
  std::atomic<int64_t> aborted{0};
  /// Writer persisting state entries (bound to job + store by the plan).
  SnapshotWriterFn write_entry;
};

/// One inbound queue of a tasklet plus its control-item bookkeeping.
struct InboundQueue {
  ItemQueuePtr queue;
  /// Barrier id received and awaiting alignment; -1 when none.
  int64_t pending_barrier = -1;
  /// Exactly-once: queue is blocked until alignment completes.
  bool blocked = false;
  bool done = false;
};

/// All queues feeding one input ordinal of a tasklet.
struct InboundStream {
  int32_t ordinal = 0;
  int32_t priority = 0;
  std::vector<InboundQueue> queues;
  bool completed_delivered = false;  // CompleteEdge already run

  bool AllDone() const {
    for (const auto& q : queues) {
      if (!q.done) return false;
    }
    return true;
  }
};

/// The tasklet driving one processor instance (§3.2): moves items between
/// the inbound SPSC queues, the processor's inbox/outbox, and the outbound
/// collectors; coalesces watermarks; aligns snapshot barriers; forwards
/// control items; and manages the processor's lifecycle
/// (restore -> process -> complete-edges -> complete -> done).
class ProcessorTasklet final : public Tasklet {
 public:
  ProcessorTasklet(std::string name, std::unique_ptr<Processor> processor,
                   ProcessorContext context, std::vector<InboundStream> inputs,
                   std::vector<OutboundCollector> collectors,
                   ProcessingGuarantee guarantee, SnapshotControl* snapshot_control);

  /// Entries to replay into the processor before any input (set when the
  /// job starts from a snapshot).
  void SetRestoreEntries(std::vector<StateEntry> entries);

  /// Max items handed to the processor's inbox per Call(); bounds the
  /// time slice a tasklet spends in one call (§3.2: "executing for a very
  /// short period of time, typically under 1 millisecond").
  static constexpr int kMaxInboxBatch = 256;

  Status Init() override;
  TaskletProgress Call() override;
  bool IsCooperative() const override { return cooperative_; }
  void PrepareWorkerHandoff() override;
  void OnWorkerAdopted(int32_t worker_index) override;
  const std::string& name() const override { return name_; }

  /// Number of data items this tasklet pushed into its processor. Safe to
  /// read from any thread: single-writer registry counter.
  int64_t items_processed() const { return items_processed_.Value(); }

  /// Total Call() invocations.
  int64_t calls() const { return calls_.Value(); }

  /// Call() invocations that made no progress.
  int64_t idle_calls() const { return idle_calls_.Value(); }

  /// True once the tasklet reached its terminal state. Safe from any thread.
  bool IsDone() const { return done_flag_.load(std::memory_order_acquire); }

  /// Last snapshot id this tasklet completed. The acquire load pairs with
  /// the worker's release store: a coordinator that sees id N also sees
  /// every state entry the tasklet wrote for N.
  int64_t completed_snapshot_id() const {
    return completed_snapshot_id_.load(std::memory_order_acquire);
  }

  /// Whether this tasklet acknowledges snapshots: tasklets with inputs do
  /// (barrier alignment), input-less tasklets only if their processor
  /// initiates snapshots (network receivers don't). The coordinator's
  /// expected-ack count sums this.
  bool ParticipatesInSnapshots() const {
    return !inputs_.empty() || processor_->InitiatesSnapshots();
  }

 private:
  enum class State {
    kRestore,
    kFinishRestore,
    kProcess,
    kWatermark,
    kSnapshotSave,
    kSnapshotBarrier,
    kCompleteEdge,
    kComplete,
    kEmitDone,
    kDone,
  };

  // One delivery pass: publishes the outbox's in-place windows, then moves
  // up to outbox_capacity items per bucket into the collectors / the
  // snapshot store. Returns true when the outbox is fully drained.
  bool DrainOutbox();

  // Acts on the control items at the front of one eligible inbound queue,
  // then attaches the data run behind them to the inbox in place. Returns
  // true when a run is attached.
  bool FillInbox();

  // Switches to the step an armed watermark, an aligned snapshot or a
  // completed input calls for; false when none is pending. Runs only
  // while the inbox is empty.
  bool TakeControlTransition();

  // Handles a control item popped from queue `q` of stream `stream`;
  // returns true if draining of this queue must stop.
  bool HandleControlItem(InboundStream& stream, size_t queue_index, const Item& item);

  // Recomputes the coalesced watermark; arms pending_wm_ when it advanced.
  void UpdateCoalescedWatermark();

  // True when every active queue has the same pending barrier (alignment
  // complete) and arms the snapshot.
  void CheckBarrierAlignment();

  // Unblocks queues after a snapshot completes.
  void FinishSnapshot();

  // Steps of Call(), one per state.
  void DoRestore();
  void DoFinishRestore();
  void DoProcess();
  void DoWatermark();
  void DoSnapshotSave();
  void DoSnapshotBarrier();
  void DoCompleteEdge();
  void DoComplete();
  void DoEmitDone();

  bool AllStreamsDone() const;

  void MarkProgress() { made_progress_ = true; }

  // Registers this tasklet's instruments ("tasklet.*" counters and queue
  // depth gauges) with context_.metrics. Runs in the constructor — before
  // any worker thread exists — so registration never races with Call().
  void RegisterMetrics();

  // Refreshes the inbox/outbox depth gauges (end of every Call).
  void UpdateQueueGauges();

  std::string name_;
  std::unique_ptr<Processor> processor_;
  ProcessorContext context_;
  Outbox outbox_;
  Inbox inbox_;
  std::vector<InboundStream> inputs_;
  std::vector<OutboundCollector> collectors_;
  ProcessingGuarantee guarantee_;
  SnapshotControl* snapshot_control_;
  bool cooperative_ = true;

  State state_ = State::kProcess;
  bool made_progress_ = false;

  WatermarkCoalescer coalescer_;
  Nanos last_forwarded_wm_ = kMinWatermark;
  Nanos pending_wm_ = kMinWatermark;
  bool wm_armed_ = false;
  bool wm_processed_by_processor_ = false;

  // Snapshot machinery.
  int64_t pending_snapshot_id_ = -1;  // armed snapshot to take
  std::atomic<int64_t> completed_snapshot_id_{0};  // polled by the commit gate
  State resume_state_after_snapshot_ = State::kProcess;

  // Which input stream, and which of its queues, the inbox's run is in.
  int32_t current_ordinal_ = 0;
  ItemQueue* run_queue_ = nullptr;
  size_t fill_cursor_ = 0;  // round-robin over (stream, queue)

  // FillInbox's list of the queues it may drain, kept to reuse its storage.
  struct QueueRef {
    size_t stream;
    size_t queue;
  };
  std::vector<QueueRef> eligible_;

  // Pending control forwarding progress (per collector).
  Item pending_control_;
  size_t control_progress_ = 0;
  bool control_armed_ = false;

  // Restore.
  std::vector<StateEntry> restore_entries_;
  size_t restore_index_ = 0;

  // Complete-edge bookkeeping.
  std::vector<int32_t> edges_to_complete_;

  // Instruments are written only by the owning worker thread but polled by
  // registry snapshots from arbitrary threads (single-writer rule: plain
  // load+store, no RMW on the hot path). When the execution has no
  // registry the handles fall back to standalone cells, so the accessors
  // above always work.
  obs::Counter items_processed_;
  obs::Counter calls_;
  obs::Counter idle_calls_;
  obs::Gauge done_gauge_;
  obs::Gauge completed_snapshot_gauge_;
  obs::Gauge inbox_depth_gauge_;
  obs::Gauge outbox_depth_gauge_;
  std::atomic<bool> done_flag_{false};

  // Binds Call()/Init() to the tasklet's assigned worker thread.
  debug::ThreadOwnershipGuard worker_guard_;

  // Global queue index base per stream (for the coalescer).
  std::vector<size_t> stream_queue_base_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_TASKLET_H_
