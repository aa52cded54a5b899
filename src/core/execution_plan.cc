#include "core/execution_plan.h"

#include <unordered_map>

namespace jet::core {

Result<std::unique_ptr<ExecutionPlan>> ExecutionPlan::Build(
    const MemberParams& params, obs::MetricsRegistry* metrics) {
  const Dag& dag = *params.dag;
  const NodeInfo& node = params.node;
  RemoteEdgeFactory* remote_edges = params.remote_edges;
  SnapshotControl* snapshot_control = params.snapshot_control;
  JET_RETURN_IF_ERROR(dag.Validate());
  if (node.node_count > 1 && remote_edges == nullptr) {
    return InvalidArgumentError("multi-node plan requires a RemoteEdgeFactory");
  }
  if (params.threads < 1) return InvalidArgumentError("threads must be >= 1");

  auto plan = std::unique_ptr<ExecutionPlan>(new ExecutionPlan());
  const auto& vertices = dag.vertices();
  const auto nv = static_cast<VertexId>(vertices.size());

  std::vector<int32_t> local_p(static_cast<size_t>(nv));
  for (VertexId v = 0; v < nv; ++v) {
    int32_t p = vertices[static_cast<size_t>(v)].local_parallelism;
    local_p[static_cast<size_t>(v)] = p == -1 ? params.threads : p;
  }

  // 1. Create the SPSC queues of every local edge hop. For edge e the
  // matrix holds queues[producer_local][consumer_local]; isolated edges
  // only populate the diagonal.
  const auto& edges = dag.edges();
  std::vector<std::vector<std::vector<ItemQueuePtr>>> edge_queues(edges.size());
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const Edge& e = edges[ei];
    int32_t sp = local_p[static_cast<size_t>(e.source)];
    int32_t dp = local_p[static_cast<size_t>(e.dest)];
    auto& matrix = edge_queues[ei];
    matrix.resize(static_cast<size_t>(sp));
    for (int32_t i = 0; i < sp; ++i) {
      if (e.routing == RoutingPolicy::kIsolated) {
        matrix[static_cast<size_t>(i)].resize(static_cast<size_t>(dp));
        matrix[static_cast<size_t>(i)][static_cast<size_t>(i)] =
            std::make_shared<ItemQueue>(static_cast<size_t>(e.queue_size));
      } else {
        for (int32_t j = 0; j < dp; ++j) {
          matrix[static_cast<size_t>(i)].push_back(
              std::make_shared<ItemQueue>(static_cast<size_t>(e.queue_size)));
        }
      }
    }
  }

  // 2. Instantiate processor tasklets per vertex instance.
  for (VertexId v = 0; v < nv; ++v) {
    const Vertex& vertex = vertices[static_cast<size_t>(v)];
    const int32_t p = local_p[static_cast<size_t>(v)];
    auto inbound = dag.InboundEdges(v);
    auto outbound = dag.OutboundEdges(v);

    for (int32_t local = 0; local < p; ++local) {
      // --- input streams, in dest-ordinal order ---
      std::vector<InboundStream> inputs;
      inputs.reserve(inbound.size());
      for (const Edge* e : inbound) {
        size_t ei = static_cast<size_t>(e - edges.data());
        InboundStream stream;
        stream.ordinal = e->dest_ordinal;
        stream.priority = e->priority;
        int32_t sp = local_p[static_cast<size_t>(e->source)];
        if (e->routing == RoutingPolicy::kIsolated) {
          InboundQueue q;
          q.queue = edge_queues[ei][static_cast<size_t>(local)][static_cast<size_t>(local)];
          stream.queues.push_back(std::move(q));
        } else {
          for (int32_t i = 0; i < sp; ++i) {
            InboundQueue q;
            q.queue = edge_queues[ei][static_cast<size_t>(i)][static_cast<size_t>(local)];
            stream.queues.push_back(std::move(q));
          }
        }
        if (e->distributed && node.node_count > 1) {
          for (auto& rq : remote_edges->ReceiverQueuesFor(*e, local)) {
            InboundQueue q;
            q.queue = std::move(rq);
            stream.queues.push_back(std::move(q));
          }
        }
        inputs.push_back(std::move(stream));
      }

      // --- outbound collectors, in source-ordinal order ---
      std::vector<OutboundCollector> collectors;
      collectors.reserve(outbound.size());
      for (const Edge* e : outbound) {
        size_t ei = static_cast<size_t>(e - edges.data());
        int32_t dp = local_p[static_cast<size_t>(e->dest)];
        std::vector<ItemQueuePtr> queues;
        int32_t isolated_index = -1;
        if (e->routing == RoutingPolicy::kIsolated) {
          queues.push_back(
              edge_queues[ei][static_cast<size_t>(local)][static_cast<size_t>(local)]);
          isolated_index = 0;
        } else {
          queues = edge_queues[ei][static_cast<size_t>(local)];
        }
        std::vector<RemoteSink> remotes;
        bool distributed = e->distributed && node.node_count > 1;
        if (distributed) {
          for (int32_t n = 0; n < node.node_count; ++n) {
            if (n == node.node_id) continue;
            remotes.push_back(remote_edges->SenderFor(*e, n, local));
          }
        }
        int32_t routing_nodes = distributed ? node.node_count : 1;
        int32_t routing_node_id = distributed ? node.node_id : 0;
        int32_t total = distributed ? node.node_count * dp : dp;
        collectors.emplace_back(e->routing, std::move(queues), std::move(remotes), total,
                                routing_nodes, routing_node_id, isolated_index);
      }

      // --- metadata + context ---
      ProcessorMeta meta;
      meta.local_index = local;
      meta.local_parallelism = p;
      meta.node_id = node.node_id;
      meta.node_count = node.node_count;
      meta.total_parallelism = node.node_count * p;
      meta.global_index = node.node_id * p + local;

      ProcessorContext ctx;
      ctx.meta = meta;
      ctx.clock = params.clock;
      ctx.config = params.config;
      ctx.cancelled = params.cancelled;
      ctx.vertex_id = v;
      ctx.metrics = metrics;
      ctx.ownership = params.ownership;
      if (snapshot_control != nullptr) {
        ctx.committed_snapshot = &snapshot_control->committed;
      }

      auto processor = vertex.supplier(meta);
      if (processor == nullptr) {
        return InternalError("processor supplier returned null for vertex '" +
                             vertex.name + "'");
      }
      std::string name = vertex.name + "#" + std::to_string(meta.global_index);
      auto tasklet = std::make_unique<ProcessorTasklet>(
          std::move(name), std::move(processor), std::move(ctx), std::move(inputs),
          std::move(collectors), params.config.guarantee, snapshot_control);
      plan->infos_.push_back(
          TaskletInfo{tasklet.get(), v, meta.global_index, meta.total_parallelism});
      plan->tasklets_.push_back(std::move(tasklet));
    }
  }

  // 3. Take the exchange tasklets behind the remote sinks and queues above.
  if (remote_edges != nullptr) {
    for (auto& t : remote_edges->TakeTasklets(metrics)) {
      plan->tasklets_.push_back(std::move(t));
    }
  }
  return plan;
}

}  // namespace jet::core
