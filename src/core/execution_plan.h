#ifndef JETSIM_CORE_EXECUTION_PLAN_H_
#define JETSIM_CORE_EXECUTION_PLAN_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/dag.h"
#include "core/tasklet.h"

namespace jet::imdg {
class DataGrid;
}  // namespace jet::imdg

namespace jet::core {

/// Identifies one node's place in a (possibly multi-node) job execution.
struct NodeInfo {
  int32_t node_id = 0;
  int32_t node_count = 1;
};

class RemoteEdgeFactory;

/// What one member needs to run its share of a job: the input of
/// ExecutionPlan::Build, the exchange's RemoteEdgeFactory and
/// core::MemberExecution (job.h). Pointees must outlive the member.
struct MemberParams {
  const Dag* dag = nullptr;  ///< Validate()d
  NodeInfo node;
  JobConfig config;
  /// Cooperative worker threads (>= 1); also the local parallelism of
  /// vertices that leave it at -1.
  int32_t threads = 1;
  const Clock* clock = nullptr;
  const std::atomic<bool>* cancelled = nullptr;
  SnapshotControl* snapshot_control = nullptr;  ///< null without a guarantee
  /// Single-writer state ownership that keyed-aggregation processors claim
  /// their partition share in (optional).
  imdg::OwnershipRegistry* ownership = nullptr;
  /// Required iff node.node_count > 1; used only while the plan is built.
  RemoteEdgeFactory* remote_edges = nullptr;
  /// Tags of every instrument in the member's registry: the job and the
  /// member's physical id.
  obs::MetricTags tags;
  /// When set, a MetricsCollectorTasklet publishes the member's registry
  /// into this grid (map "__jet.metrics", key
  /// "job-<tags.job>/member-<tags.member>") — the Management-Center
  /// persistence path.
  imdg::DataGrid* metrics_grid = nullptr;
  Nanos metrics_publish_interval = 500 * kNanosPerMilli;
};

/// Supplies the cross-node plumbing for distributed edges. Implemented by
/// the cluster runtime; a single-node execution passes nullptr and all
/// edges stay local.
///
/// SPSC discipline: the sink returned by `SenderFor` is owned by exactly
/// one producer tasklet, and each queue returned by `ReceiverQueuesFor` is
/// written by exactly one receiver tasklet.
///
/// The factory need only live while ExecutionPlan::Build runs: the plan
/// takes the exchange tasklets with TakeTasklets and owns them from then on.
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

  /// Builds the exchange tasklets (senders, then receivers) behind every
  /// sink and queue handed out above; their instruments register with
  /// `metrics` (may be null). Called once, after the last SenderFor /
  /// ReceiverQueuesFor.
  virtual std::vector<std::unique_ptr<ProcessorTasklet>> TakeTasklets(
      obs::MetricsRegistry* metrics) = 0;
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
/// core") — one tasklet per processor instance, then the exchange tasklets
/// of the node's distributed edges. Build once per node, hand the tasklets
/// to an ExecutionService.
class ExecutionPlan {
 public:
  /// Instantiates the plan for this node and takes the exchange tasklets
  /// of `params.remote_edges`, so the factory may go once Build returns.
  /// `metrics` (optional) is handed to every tasklet's ProcessorContext,
  /// exchange tasklets included, so the tasklets and their processors
  /// register "tasklet.*" / exchange instruments with it.
  static Result<std::unique_ptr<ExecutionPlan>> Build(const MemberParams& params,
                                                      obs::MetricsRegistry* metrics);

  /// All tasklets of this node: processor instances in creation order,
  /// then exchange tasklets.
  const std::vector<std::unique_ptr<ProcessorTasklet>>& tasklets() const {
    return tasklets_;
  }

  /// Metadata of the processor-instance tasklets (a prefix of tasklets()),
  /// for snapshot restore. Exchange tasklets hold no state and have none.
  const std::vector<TaskletInfo>& tasklet_infos() const { return infos_; }

 private:
  ExecutionPlan() = default;

  std::vector<std::unique_ptr<ProcessorTasklet>> tasklets_;
  std::vector<TaskletInfo> infos_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_EXECUTION_PLAN_H_
