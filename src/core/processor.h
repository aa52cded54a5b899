#ifndef JETSIM_CORE_PROCESSOR_H_
#define JETSIM_CORE_PROCESSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "core/config.h"
#include "core/dag.h"
#include "core/inbox_outbox.h"
#include "core/item.h"
#include "obs/metric_id.h"
#include "obs/metrics_registry.h"

namespace jet::imdg {
class OwnershipRegistry;
}  // namespace jet::imdg

namespace jet::core {

/// Everything a processor instance can see about its execution environment.
/// Owned by the tasklet; valid from Init until the tasklet finishes.
struct ProcessorContext {
  ProcessorMeta meta;
  /// The processor writes all output (and snapshot state) here.
  Outbox* outbox = nullptr;
  /// Engine clock: wall time in the real engine, virtual time in tests.
  const Clock* clock = nullptr;
  /// Job-wide configuration.
  JobConfig config;
  /// Set when the job is cancelled; long-running Complete() loops should
  /// poll it and wind down.
  const std::atomic<bool>* cancelled = nullptr;
  /// Vertex this instance belongs to.
  VertexId vertex_id = 0;
  /// Highest committed snapshot id (§4.5); nullptr without a guarantee.
  const std::atomic<int64_t>* committed_snapshot = nullptr;
  /// Id of the snapshot currently being taken; set by the tasklet before
  /// SaveToSnapshot and valid until OnSnapshotCompleted returns.
  int64_t current_snapshot_id = 0;
  /// Member-wide metrics registry; nullptr when the execution runs without
  /// observability. Processors with interesting internals (the exchange
  /// operators) register instruments in Init() using `metric_tags`.
  obs::MetricsRegistry* metrics = nullptr;
  /// Identity ({vertex, tasklet}) the plan assigned to this instance, ready
  /// to tag instruments with.
  obs::MetricTags metric_tags;
  /// Single-writer state-ownership registry (ROADMAP item 3); nullptr when
  /// the execution runs without ownership tracking. Keyed-aggregation
  /// processors claim their partition share in their vertex's domain at
  /// Init; the scheduler transfers the claims on worker handoff via
  /// AdoptWorkerOwnership.
  imdg::OwnershipRegistry* ownership = nullptr;

  /// Highest snapshot id the coordinator committed (0 when none/unknown).
  int64_t CommittedSnapshot() const {
    return committed_snapshot == nullptr
               ? 0
               : committed_snapshot->load(std::memory_order_acquire);
  }

  bool IsCancelled() const {
    return cancelled != nullptr && cancelled->load(std::memory_order_relaxed);
  }
};

/// The unit of custom logic attached to a DAG vertex (§3.2 "Jet
/// Processors"). One instance exists per parallel slot; instances never
/// share state and are only ever called from one thread, so implementations
/// need no synchronization.
///
/// Cooperative contract: every method must complete quickly (well under a
/// millisecond of work) and never block. Output goes to the outbox, whose
/// offers never fail: stop consuming input or generating events once
/// `outbox->HasRoom()` is false, and return. Whatever you offered is
/// delivered before the next watermark, barrier or Done, so a processor
/// needs no output buffer of its own. Methods that stop early are called
/// again later. Processors that must block (3rd-party sources/sinks, §3.1)
/// return false from `IsCooperative()` and run on dedicated threads.
class Processor {
 public:
  virtual ~Processor() = default;

  /// Called once before any other method. `ctx` remains valid for the
  /// processor's lifetime.
  virtual Status Init(ProcessorContext* ctx) {
    ctx_ = ctx;
    return Status::OK();
  }

  /// Consumes items from `inbox` (input edge `ordinal`), emitting results
  /// to the outbox. Stop when `outbox->HasRoom()` is false; items left in
  /// the inbox are re-offered on the next call, and whatever you offered is
  /// delivered before the next watermark, barrier or Done. Source
  /// processors (no input edges) keep the default no-op and do their work
  /// in Complete().
  virtual void Process(int ordinal, Inbox* inbox) {
    (void)ordinal;
    (void)inbox;
  }

  /// Called periodically when the tasklet found no input to process (and
  /// at least once between input batches), mirroring Jet's tryProcess():
  /// lets processors do time-driven work — release transactions whose
  /// snapshot committed, emit periodic output. Stop when
  /// `outbox->HasRoom()` is false; whatever you offered is delivered before
  /// the next watermark, barrier or Done. Return false to be called again
  /// before any new input is offered.
  virtual bool TryProcess() { return true; }

  /// A watermark `wm` has been coalesced across all input queues: no data
  /// item with timestamp <= wm will arrive on any input. Whatever you offer
  /// is delivered before `wm` itself is forwarded. Return true when fully
  /// handled; to spread a large flush over several calls, stop when
  /// `outbox->HasRoom()` is false and return false, which re-delivers the
  /// same watermark once the outbox drained.
  virtual bool TryProcessWatermark(Nanos wm) {
    (void)wm;
    return true;
  }

  /// Input edge `ordinal` is exhausted (all producers sent Done). Return
  /// true when done handling; false to be called again.
  virtual bool CompleteEdge(int ordinal) {
    (void)ordinal;
    return true;
  }

  /// All input edges are exhausted (sources: called immediately). Emit any
  /// final output; sources generate their events here. Stop when
  /// `outbox->HasRoom()` is false; whatever you offered is delivered before
  /// Done. Return true when finished — the tasklet then completes — or
  /// false to be called again. Streaming sources return false until
  /// cancelled/deadline.
  virtual bool Complete() { return true; }

  /// Save all state to the outbox's snapshot bucket, which has no cap:
  /// offer every entry in one call and return true. Every entry is
  /// delivered before the barrier is forwarded. (Returning false calls
  /// this again, so only do that to spread a save you resume yourself.)
  /// Called between two input batches, never concurrently with Process.
  virtual bool SaveToSnapshot() { return true; }

  /// Restore one state entry captured by SaveToSnapshot. Called before any
  /// Process call, once per entry owned by this instance's partitions.
  virtual Status RestoreFromSnapshot(const StateEntry& entry) {
    (void)entry;
    return InternalError("processor does not support snapshot restore");
  }

  /// Called after the last RestoreFromSnapshot. Return true when finished.
  virtual bool FinishSnapshotRestore() { return true; }

  /// Called after SaveToSnapshot finished and the barrier was forwarded to
  /// all local collectors, before the tasklet acknowledges the snapshot.
  /// Network sender processors use this to put the barrier on the wire.
  /// Return false to be called again (e.g. the wire is saturated).
  virtual bool OnSnapshotCompleted(int64_t snapshot_id) {
    (void)snapshot_id;
    return true;
  }

  /// Whether a tasklet with no input edges should initiate snapshots when
  /// the coordinator requests one. True for real sources; false for
  /// network receivers, which forward barriers arriving on the wire
  /// instead of creating their own.
  virtual bool InitiatesSnapshots() const { return true; }

  /// Cooperative processors run multiplexed on shared worker threads;
  /// non-cooperative ones get a dedicated thread (§3.2).
  virtual bool IsCooperative() const { return true; }

  /// The hosting tasklet is about to migrate to another worker thread
  /// (load rebalancing, round boundary only). Processors holding
  /// single-thread transport roles (e.g. the receiver's wire-buffer
  /// drainer) unbind them here; the scheduler guarantees a happens-before
  /// edge to the new worker's first call.
  virtual void ReleaseWorkerOwnership() {}

  /// The hosting tasklet has just been adopted by worker `worker_index`
  /// (counterpart of ReleaseWorkerOwnership, ordered after it). Processors
  /// holding partition-ownership claims re-register them under the new
  /// worker here, so state ownership migrates together with the tasklet.
  virtual void AdoptWorkerOwnership(int32_t worker_index) { (void)worker_index; }

 protected:
  /// Available after Init.
  ProcessorContext* ctx() const { return ctx_; }

 private:
  ProcessorContext* ctx_ = nullptr;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_PROCESSOR_H_
