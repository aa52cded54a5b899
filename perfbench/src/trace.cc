#include "trace.h"

#include <utility>

namespace perfbench {

namespace {

using jet::WallClock;
using jet::core::Inbox;
using jet::core::Item;
using jet::core::ItemKind;
using jet::core::Processor;
using jet::core::ProcessorContext;

/// Times every call into `inner_`. Calls are forwarded unchanged; the only
/// extra work on the data path is reading the clock around each call and,
/// on the first call that sees a fresh inbox, one pass over its items to
/// record their arrival age (the items are moved out and back in the same
/// order, so the wrapped processor sees exactly what the tasklet offered).
class TimedProcessor final : public Processor {
 public:
  TimedProcessor(std::unique_ptr<Processor> inner, VertexStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  jet::Status Init(ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return inner_->Init(ctx);
  }

  void Process(int ordinal, Inbox* inbox) override {
    const Nanos start = Now();
    // The tasklet refills only an empty inbox, so items left over from
    // the previous call were aged then; a fresh inbox is aged once here.
    if (leftover_ == 0) RecordArrivalAges(inbox, start);
    const size_t before = inbox->Size();
    inner_->Process(ordinal, inbox);
    leftover_ = inbox->Size();
    stats_->items += static_cast<int64_t>(before - leftover_);
    Finish("Process", start);
  }

  bool TryProcess() override {
    const Nanos start = Now();
    const bool done = inner_->TryProcess();
    Finish("TryProcess", start);
    return done;
  }

  bool TryProcessWatermark(Nanos wm) override {
    const Nanos start = Now();
    const bool done = inner_->TryProcessWatermark(wm);
    const Nanos took = Finish("TryProcessWatermark", start);
    stats_->wm_busy += took;
    if (took > stats_->wm_max) stats_->wm_max = took;
    return done;
  }

  bool CompleteEdge(int ordinal) override {
    const Nanos start = Now();
    const bool done = inner_->CompleteEdge(ordinal);
    Finish("CompleteEdge", start);
    return done;
  }

  bool Complete() override {
    const Nanos start = Now();
    // A source emits in Complete(): count the data items it appends to its
    // first output bucket (the tasklet drains the outbox between calls,
    // never during one).
    const std::vector<Item>* bucket =
        ctx()->outbox->edge_count() > 0 ? &ctx()->outbox->bucket(0) : nullptr;
    const size_t before = bucket != nullptr ? bucket->size() : 0;
    const bool done = inner_->Complete();
    if (bucket != nullptr) {
      for (size_t i = before; i < bucket->size(); ++i) {
        if ((*bucket)[i].kind == ItemKind::kData) ++stats_->items;
      }
    }
    Finish("Complete", start);
    return done;
  }

  bool SaveToSnapshot() override {
    const Nanos start = Now();
    const bool done = inner_->SaveToSnapshot();
    stats_->snapshot_busy += Finish("SaveToSnapshot", start);
    return done;
  }

  jet::Status RestoreFromSnapshot(const jet::core::StateEntry& entry) override {
    return inner_->RestoreFromSnapshot(entry);
  }

  bool FinishSnapshotRestore() override { return inner_->FinishSnapshotRestore(); }

  bool OnSnapshotCompleted(int64_t snapshot_id) override {
    const Nanos start = Now();
    const bool done = inner_->OnSnapshotCompleted(snapshot_id);
    stats_->snapshot_busy += Finish("OnSnapshotCompleted", start);
    return done;
  }

  bool InitiatesSnapshots() const override { return inner_->InitiatesSnapshots(); }
  bool IsCooperative() const override { return inner_->IsCooperative(); }
  void ReleaseWorkerOwnership() override { inner_->ReleaseWorkerOwnership(); }
  void AdoptWorkerOwnership(int32_t worker_index) override {
    inner_->AdoptWorkerOwnership(worker_index);
  }

 private:
  // The engine's clock is WallClock::Global() in every workload here; a
  // WallClock of our own would have a different epoch than the item
  // timestamps.
  static Nanos Now() { return WallClock::Global().Now(); }

  void RecordArrivalAges(Inbox* inbox, Nanos now) {
    drained_.clear();
    inbox->DrainTo(&drained_, inbox->Size());
    for (Item& item : drained_) {
      if (item.kind == ItemKind::kData) stats_->arrival_age.Record(now - item.timestamp);
      inbox->Add(std::move(item));
    }
  }

  Nanos Finish(const char* method, Nanos start) {
    const Nanos end = Now();
    const Nanos took = end - start;
    ++stats_->calls;
    stats_->busy += took;
    stats_->call_nanos.Record(took);
    if (took > kSlowCallNanos) {
      ++stats_->slow_calls;
      stats_->spans.push_back(
          Span{stats_->role.role, stats_->instance, method, start, end});
    }
    return took;
  }

  std::unique_ptr<Processor> inner_;
  VertexStats* stats_;
  size_t leftover_ = 0;
  std::vector<Item> drained_;
};

}  // namespace

jet::core::Dag RebuildDag(
    const jet::core::Dag& dag,
    const std::function<jet::core::ProcessorSupplier(const jet::core::Vertex&)>&
        supplier_for) {
  jet::core::Dag out;
  for (const jet::core::Vertex& v : dag.vertices()) {
    out.AddVertex(v.name, supplier_for(v), v.local_parallelism);
  }
  for (const jet::core::Edge& e : dag.edges()) {
    jet::core::Edge& copy = out.AddEdge(e.source, e.dest, e.source_ordinal, e.dest_ordinal);
    copy.routing = e.routing;
    copy.distributed = e.distributed;
    copy.priority = e.priority;
    copy.queue_size = e.queue_size;
  }
  return out;
}

namespace {

/// Wraps `inner` so every processor it makes is timed into `log`.
jet::core::ProcessorSupplier Traced(jet::core::ProcessorSupplier inner, Role role,
                                    TraceLog* log) {
  return [inner = std::move(inner), role = std::move(role),
          log](const jet::core::ProcessorMeta& meta) -> std::unique_ptr<Processor> {
    return std::make_unique<TimedProcessor>(inner(meta),
                                            log->NewInstance(role, meta.global_index));
  };
}

}  // namespace

jet::Result<jet::core::Dag> TraceDag(const jet::core::Dag& dag,
                                     const std::map<std::string, Role>& roles,
                                     TraceLog* log) {
  for (const jet::core::Vertex& v : dag.vertices()) {
    if (roles.count(v.name) == 0) {
      return jet::InvalidArgumentError("no role for vertex '" + v.name + "'");
    }
  }
  return RebuildDag(dag, [&](const jet::core::Vertex& v) {
    return Traced(v.supplier, roles.at(v.name), log);
  });
}

}  // namespace perfbench
