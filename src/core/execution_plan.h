#ifndef JETSIM_CORE_EXECUTION_PLAN_H_
#define JETSIM_CORE_EXECUTION_PLAN_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/dag.h"
#include "core/tasklet.h"

namespace jet::core {

/// Identifies one node's place in a (possibly multi-node) job execution.
struct NodeInfo {
  int32_t node_id = 0;
  int32_t node_count = 1;
};

/// Supplies the cross-node plumbing for distributed edges. Implemented by
/// the cluster runtime; a single-node execution passes nullptr and all
/// edges stay local.
///
/// SPSC discipline: the sink returned by `SenderFor` is owned by exactly
/// one producer tasklet, and each queue returned by `ReceiverQueuesFor` is
/// written by exactly one receiver tasklet.
class RemoteEdgeFactory {
 public:
  virtual ~RemoteEdgeFactory() = default;

  /// Returns a sink delivering items of edge `e` from producer instance
  /// `producer_local_index` on this node to node `dest_node`.
  virtual RemoteSink SenderFor(const Edge& e, int32_t dest_node,
                               int32_t producer_local_index) = 0;

  /// Returns the queues that remote nodes' items arrive on for consumer
  /// instance `consumer_local_index` of edge `e` — one queue per remote
  /// node, ordered by node id.
  virtual std::vector<ItemQueuePtr> ReceiverQueuesFor(const Edge& e,
                                                      int32_t consumer_local_index) = 0;
};

/// One instantiated tasklet plus the identity of the processor instance it
/// drives (used to route snapshot-restore state to the right instance).
struct TaskletInfo {
  ProcessorTasklet* tasklet = nullptr;
  VertexId vertex = 0;
  int32_t global_index = 0;
  int32_t total_parallelism = 0;
};

/// The per-node physical plan: all tasklets and queues instantiated from a
/// DAG (§3.1: "deploys the complete dataflow graph on every available CPU
/// core"). Build once per node, hand the tasklets to an ExecutionService.
class ExecutionPlan {
 public:
  /// Instantiates the plan for this node.
  ///
  /// `dag` must outlive the plan and have been Validate()d.
  /// `default_local_parallelism` replaces vertices' -1 parallelism
  /// (normally the node's cooperative thread count). `remote_edges` is
  /// required iff `node.node_count > 1`. `snapshot_control` may be null
  /// when the job runs without a processing guarantee. `metrics` (optional)
  /// is handed to every tasklet's ProcessorContext so the tasklets and
  /// their processors register "tasklet.*" / exchange instruments with it.
  /// `ownership` (optional) is the member's single-writer state-ownership
  /// registry; keyed-aggregation processors claim their partition share in
  /// it at Init and access that state lock-free afterwards.
  static Result<std::unique_ptr<ExecutionPlan>> Build(
      const Dag& dag, const NodeInfo& node, const JobConfig& config,
      int32_t default_local_parallelism, const Clock* clock,
      const std::atomic<bool>* cancelled, RemoteEdgeFactory* remote_edges,
      SnapshotControl* snapshot_control, obs::MetricsRegistry* metrics = nullptr,
      imdg::OwnershipRegistry* ownership = nullptr);

  /// All tasklets of this node, in creation order.
  std::vector<Tasklet*> Tasklets();

  /// Tasklet metadata for snapshot restore.
  const std::vector<TaskletInfo>& tasklet_infos() const { return infos_; }

  /// Number of tasklets.
  int64_t tasklet_count() const { return static_cast<int64_t>(tasklets_.size()); }

 private:
  ExecutionPlan() = default;

  std::vector<std::unique_ptr<ProcessorTasklet>> tasklets_;
  std::vector<TaskletInfo> infos_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_EXECUTION_PLAN_H_
