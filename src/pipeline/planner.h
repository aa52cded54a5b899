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
/// this is what operator fusion buys (§3.1).
class FusedStatelessP final : public core::Processor {
 public:
  explicit FusedStatelessP(std::vector<ItemTransformFn> chain)
      : chain_(std::move(chain)) {}

  void Process(int ordinal, core::Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty() && ctx()->outbox->HasRoom()) {
      ApplyChain(inbox->Poll());
    }
  }

 private:
  void ApplyChain(core::Item in) {
    scratch_a_.clear();
    scratch_a_.push_back(std::move(in));
    for (const ItemTransformFn& fn : chain_) {
      scratch_b_.clear();
      for (const core::Item& item : scratch_a_) fn(item, &scratch_b_);
      scratch_a_.swap(scratch_b_);
    }
    for (auto& item : scratch_a_) ctx()->outbox->OfferToAll(std::move(item));
  }

  std::vector<ItemTransformFn> chain_;
  std::vector<core::Item> scratch_a_;
  std::vector<core::Item> scratch_b_;
};

/// Lowers a stage graph to a core::Dag: fuses stateless chains, expands
/// keyed windowed aggregates into the two-stage accumulate/combine pair
/// (§3.1 "local partial results followed by global combining"), and picks
/// edge routing.
Result<core::Dag> BuildDag(const StageGraph& graph, const PlanOptions& options = {});

}  // namespace jet::pipeline

#endif  // JETSIM_PIPELINE_PLANNER_H_
