#ifndef JETSIM_PIPELINE_PLANNER_H_
#define JETSIM_PIPELINE_PLANNER_H_

#include "common/status.h"
#include "core/dag.h"
#include "core/processor.h"
#include "pipeline/stage_graph.h"

namespace jet::pipeline {

/// Planner knobs, exposed mainly for the fusion ablation benchmark.
struct PlanOptions {
  /// Fuse chains of stateless stages into one processor (§3.1: "it fuses
  /// (a.k.a. operator chaining) consecutive stateless operators").
  bool enable_fusion = true;
  /// Upgrade local unicast edges between equal-parallelism vertices to
  /// isolated edges (producer i feeds consumer i), keeping the data path
  /// core-local (§3.1/§5 "optimized data path").
  bool isolate_local_edges = true;
};

/// Executes a fused chain of stateless transforms as one processor. Items
/// pass through the chain's function calls without touching any queue —
/// this is what operator fusion buys (§3.1): each stage hands its output
/// straight to the next stage, and the last one into the outbox.
class FusedStatelessP final : public core::Processor {
 public:
  explicit FusedStatelessP(std::vector<ItemTransformFn> chain)
      : chain_(std::move(chain)) {}

  void Process(int ordinal, core::Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty() && ctx()->outbox->HasRoom()) {
      RunChainFrom(0, *inbox->Peek());
      inbox->RemoveFront();
    }
  }

 private:
  // Runs stage `stage` on `in`, passing each output on depth-first, which
  // keeps the outputs in the order a stage-at-a-time pass would give.
  void RunChainFrom(size_t stage, const core::Item& in) {
    auto next = [this, stage](core::Item&& out) {
      if (stage + 1 == chain_.size()) {
        ctx()->outbox->OfferToAll(std::move(out));
      } else {
        RunChainFrom(stage + 1, out);
      }
    };
    chain_[stage](in, next);
  }

  std::vector<ItemTransformFn> chain_;
};

/// Lowers a stage graph to a core::Dag: fuses stateless chains, expands
/// keyed windowed aggregates into the two-stage accumulate/combine pair
/// (§3.1 "local partial results followed by global combining"), and picks
/// edge routing.
Result<core::Dag> BuildDag(const StageGraph& graph, const PlanOptions& options = {});

}  // namespace jet::pipeline

#endif  // JETSIM_PIPELINE_PLANNER_H_
