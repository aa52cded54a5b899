#ifndef JETSIM_PIPELINE_STAGE_GRAPH_H_
#define JETSIM_PIPELINE_STAGE_GRAPH_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dag.h"
#include "core/item.h"

namespace jet::pipeline {

/// Non-owning reference to the callable a stateless stage hands each of its
/// output items to. It is valid only during the transform call it is passed
/// to, and copying it copies two pointers, so a fused chain can pass items
/// from stage to stage with no buffer and no allocation.
class ItemEmitter {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, ItemEmitter>>>
  ItemEmitter(F& target)  // NOLINT(google-explicit-constructor)
      : target_(&target), call_([](void* t, core::Item&& item) {
          (*static_cast<F*>(t))(std::move(item));
        }) {}

  void operator()(core::Item&& item) const { call_(target_, std::move(item)); }

 private:
  void* target_;
  void (*call_)(void*, core::Item&&);
};

/// Item-level transform of a stateless stage: reads `in` and passes any
/// number of output items to `emit`, in order. Stored type-erased so the
/// planner can fuse consecutive stateless stages into one processor (§3.1
/// operator fusion) regardless of their static types.
using ItemTransformFn = std::function<void(const core::Item& in, ItemEmitter emit)>;

/// Untyped stage-graph node. The typed Pipeline API (pipeline.h) is a
/// compile-time-checked veneer over this representation; the planner
/// (planner.h) lowers it to a core::Dag.
struct StageNode {
  enum class Kind {
    kStreamSource,  ///< infinite source (supplier)
    kBatchSource,   ///< finite source (supplier)
    kStateless,     ///< map/filter/flatMap (transform; fusable)
    kAggregate,     ///< keyed windowed aggregate (two-stage suppliers)
    kHashJoin,      ///< batch build (input 0) + stream probe (input 1)
    kWindowJoin,    ///< stream-stream windowed equi-join
    kRolling,       ///< keyed rolling aggregate (single stateful vertex)
    kSink,          ///< terminal stage (supplier)
  };

  /// How a stage's input edge routes (chosen by the API/planner).
  struct Input {
    int32_t node = -1;
    core::RoutingPolicy routing = core::RoutingPolicy::kUnicast;
    bool distributed = false;
    int32_t priority = 0;
  };

  Kind kind = Kind::kStateless;
  std::string name;
  std::vector<Input> inputs;
  /// Parallelism per node (-1 = engine default).
  int32_t local_parallelism = -1;

  /// Stateless stages: the fusable transform.
  ItemTransformFn transform;

  /// Non-stateless stages: processor factory. Aggregates use `supplier`
  /// for the accumulate stage and `supplier2` for the combine stage.
  core::ProcessorSupplier supplier;
  core::ProcessorSupplier supplier2;
};

/// The mutable stage graph a Pipeline builds up.
class StageGraph {
 public:
  int32_t AddNode(StageNode node) {
    nodes_.push_back(std::move(node));
    return static_cast<int32_t>(nodes_.size()) - 1;
  }

  StageNode& node(int32_t id) { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<StageNode>& nodes() const { return nodes_; }

  /// Number of stages consuming `id`'s output.
  int32_t ConsumerCount(int32_t id) const {
    int32_t n = 0;
    for (const auto& node : nodes_) {
      for (const auto& in : node.inputs) {
        if (in.node == id) ++n;
      }
    }
    return n;
  }

 private:
  std::vector<StageNode> nodes_;
};

}  // namespace jet::pipeline

#endif  // JETSIM_PIPELINE_STAGE_GRAPH_H_
