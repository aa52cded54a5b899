#include "net/exchange.h"

#include <algorithm>
#include <cassert>

namespace jet::net {
namespace {

/// The in-memory transport: frames travel as closures over net::Network,
/// so per-link faults, latency and delivery accounting keep applying.
/// With ExchangeOptions::serialize_frames the frame is encoded on the
/// sending side and decoded inside the delivery closure — the in-process
/// execution then pays the exact byte-level cost of the socket path.
///
/// A frame the bus drops resets the link, like a TCP connection reset: it
/// carries nothing more in either direction, and it marks its registry
/// broken. Nothing crosses the gap, so no later barrier, watermark or done
/// marker can commit, close a window over or complete what the lost frame
/// carried; the owner of the execution must restart it.
class InProcessFrameLink final : public FrameLink {
 public:
  InProcessFrameLink(Network* network, const ExchangeChannel& channel, bool serialize,
                     FrameHeader header, std::shared_ptr<std::atomic<bool>> broken)
      : network_(network),
        wire_(channel.wire),
        flow_(channel.flow),
        data_channel_(channel.data_channel),
        ack_channel_(channel.ack_channel),
        serialize_(serialize),
        header_(header),
        broken_(std::move(broken)) {}

  void SendData(std::vector<core::Item>&& frame) override {
    if (reset_.load(std::memory_order_acquire)) return;
    if (serialize_) {
      BytesWriter w;
      Status s = EncodeDataFrame(header_, frame, &w);
      if (s.ok()) {
        Ship(data_channel_, [wire = wire_, bytes = w.Take()]() {
          auto decoded = DecodeFrame(bytes);
          JET_DCHECK(decoded.ok());
          if (decoded.ok()) wire->Push(std::move(decoded->items));
        });
        return;
      }
      // A payload type without a codec (local-only test jobs): ship the
      // in-memory frame instead — correctness over measured cost.
    }
    Ship(data_channel_,
         [wire = wire_, b = std::move(frame)]() mutable { wire->Push(std::move(b)); });
  }

  void SendAck(int64_t new_limit) override {
    if (reset_.load(std::memory_order_acquire)) return;
    if (serialize_) {
      BytesWriter w;
      JET_DCHECK_OK(EncodeAckFrame(header_, new_limit, &w));
      Ship(ack_channel_, [flow = flow_, bytes = w.Take()]() {
        auto decoded = DecodeFrame(bytes);
        JET_DCHECK(decoded.ok());
        if (decoded.ok()) flow->OnAck(decoded->ack_limit);
      });
      return;
    }
    Ship(ack_channel_, [flow = flow_, new_limit]() { flow->OnAck(new_limit); });
  }

 private:
  void Ship(ChannelId channel, std::function<void()> deliver) {
    if (network_->Send(channel, std::move(deliver))) return;
    reset_.store(true, std::memory_order_release);
    broken_->store(true, std::memory_order_release);
  }

  Network* network_;
  std::shared_ptr<WireBuffer> wire_;
  std::shared_ptr<SenderFlowState> flow_;
  ChannelId data_channel_;
  ChannelId ack_channel_;
  bool serialize_;
  FrameHeader header_;
  // The sender tasklet ships data, the receiver tasklet acks: either may
  // reset the link.
  std::atomic<bool> reset_{false};
  std::shared_ptr<std::atomic<bool>> broken_;
};

}  // namespace

std::shared_ptr<ExchangeChannel> ExchangeRegistry::GetOrCreate(int32_t edge_index,
                                                               int32_t from_node,
                                                               int32_t to_node) {
  jet::MutexLock lock(mutex_);
  auto key = std::make_tuple(edge_index, from_node, to_node);
  auto it = channels_.find(key);
  if (it != channels_.end()) return it->second;
  auto channel = std::make_shared<ExchangeChannel>();
  int32_t phys_from = PhysicalIdOf(from_node);
  int32_t phys_to = PhysicalIdOf(to_node);
  channel->data_channel = network_->OpenChannel(phys_from, phys_to);
  // Acks flow back receiver -> sender, so a one-way fault on (to, from)
  // affects them, not the data direction.
  channel->ack_channel = network_->OpenChannel(phys_to, phys_from);
  channel->link = MakeLink(*channel, edge_index, from_node, to_node);
  channels_[key] = channel;
  return channel;
}

std::shared_ptr<FrameLink> ExchangeRegistry::MakeLink(const ExchangeChannel& channel,
                                                      int32_t edge_index, int32_t from_node,
                                                      int32_t to_node) {
  FrameHeader header;
  header.edge_index = edge_index;
  header.from_node = from_node;
  header.to_node = to_node;
  header.epoch = options_.epoch;
  return std::make_shared<InProcessFrameLink>(network_, channel, options_.serialize_frames,
                                              header, broken_);
}

int32_t ExchangeRegistry::PhysicalIdOf(int32_t plan_node) const {
  if (plan_node >= 0 && static_cast<size_t>(plan_node) < physical_node_ids_.size()) {
    return physical_node_ids_[static_cast<size_t>(plan_node)];
  }
  return kAnyNode;
}

// ---------------------------------------------------------------------------
// SenderProcessor
// ---------------------------------------------------------------------------

SenderProcessor::SenderProcessor(std::shared_ptr<ExchangeChannel> channel, int32_t max_batch)
    : channel_(std::move(channel)), max_batch_(max_batch) {}

Status SenderProcessor::Init(core::ProcessorContext* ctx) {
  JET_RETURN_IF_ERROR(core::Processor::Init(ctx));
  if (ctx->metrics != nullptr) {
    items_sent_counter_ = ctx->metrics->GetCounter("exchange.items_sent", ctx->metric_tags);
    window_available_gauge_ =
        ctx->metrics->GetGauge("exchange.window_available", ctx->metric_tags);
    batch_size_hist_ = ctx->metrics->GetHistogram("exchange.batch_size", ctx->metric_tags,
                                                  /*max_value=*/64 * 1024);
    // The send limit is advanced by acks on the network thread; the atomic
    // read is safe from the registry's polling thread.
    auto flow = channel_->flow;
    ctx->metrics->RegisterCallback("exchange.send_limit", ctx->metric_tags,
                                   [flow]() { return flow->SendLimit(); });
  }
  return Status::OK();
}

void SenderProcessor::Process(int ordinal, core::Inbox* inbox) {
  (void)ordinal;
  // Bulk-move the inbox prefix into one wire frame (the inbox only ever
  // holds data items — the hosting tasklet strips control items before the
  // processor sees them). The frame is bounded by both the configured max
  // batch and the remaining receive window; items beyond the window stay in
  // the inbox, its queues fill up, and backpressure reaches the producers
  // (§3.3).
  const int64_t window = channel_->flow->SendLimit() - sent_seq_;
  if (window <= 0 || inbox->Empty()) {
    window_available_gauge_.Set(std::max<int64_t>(0, window));
    return;
  }
  const size_t limit =
      static_cast<size_t>(std::min<int64_t>(window, static_cast<int64_t>(max_batch_)));
  std::vector<core::Item> batch;
  batch.reserve(std::min(limit, inbox->Size()));
  const size_t n = inbox->DrainTo(&batch, limit);
  sent_seq_ += static_cast<int64_t>(n);
  items_sent_counter_.Add(static_cast<int64_t>(n));
  batch_size_hist_.Record(static_cast<int64_t>(n));
  window_available_gauge_.Set(std::max<int64_t>(0, channel_->flow->SendLimit() - sent_seq_));
  if (!batch.empty()) SendBatch(std::move(batch));
}

bool SenderProcessor::TryProcessWatermark(Nanos wm) {
  // Control items bypass the window: they are few and must not deadlock
  // behind it.
  std::vector<core::Item> batch;
  batch.push_back(core::Item::WatermarkAt(wm));
  SendBatch(std::move(batch));
  return true;
}

bool SenderProcessor::OnSnapshotCompleted(int64_t snapshot_id) {
  std::vector<core::Item> batch;
  batch.push_back(core::Item::BarrierFor(snapshot_id));
  SendBatch(std::move(batch));
  return true;
}

bool SenderProcessor::Complete() {
  if (!done_sent_) {
    std::vector<core::Item> batch;
    batch.push_back(core::Item::Done());
    SendBatch(std::move(batch));
    done_sent_ = true;
  }
  return true;
}

void SenderProcessor::SendBatch(std::vector<core::Item>&& batch) {
  channel_->link->SendData(std::move(batch));
}

// ---------------------------------------------------------------------------
// ReceiverProcessor
// ---------------------------------------------------------------------------

ReceiverProcessor::ReceiverProcessor(std::shared_ptr<ExchangeChannel> channel,
                                     ReceiveWindowController::Options window_options)
    : channel_(std::move(channel)), window_ctl_(window_options) {}

Status ReceiverProcessor::Init(core::ProcessorContext* ctx) {
  JET_RETURN_IF_ERROR(core::Processor::Init(ctx));
  if (ctx->metrics != nullptr) {
    items_forwarded_counter_ =
        ctx->metrics->GetCounter("exchange.items_forwarded", ctx->metric_tags);
    acks_sent_counter_ = ctx->metrics->GetCounter("exchange.acks_sent", ctx->metric_tags);
    receive_window_gauge_ =
        ctx->metrics->GetGauge("exchange.receive_window", ctx->metric_tags);
    receive_window_gauge_.Set(window_ctl_.window());
    // WireBuffer::Size takes the buffer's own mutex, so the registry may
    // poll it from any thread; capture the shared_ptr, never `this`.
    auto wire = channel_->wire;
    ctx->metrics->RegisterCallback("exchange.wire_depth", ctx->metric_tags, [wire]() {
      return static_cast<int64_t>(wire->Size());
    });
  }
  return Status::OK();
}

bool ReceiverProcessor::Complete() {
  // One wire frame (at most 256 items) per call, forwarded whole: the
  // tasklet delivers it before it runs this processor again.
  staged_.clear();
  if (!saw_done_) channel_->wire->DrainInto(&staged_, 256);
  for (core::Item& item : staged_) {
    if (item.IsDone()) {
      saw_done_ = true;
      continue;
    }
    if (item.IsData()) {
      ++forwarded_seq_;
      items_forwarded_counter_.Add(1);
    }
    // Moved into the last bucket, refcount-copied into the rest.
    ctx()->outbox->OfferToAll(std::move(item));
  }
  // Periodically ack our progress so the sender's window slides (§3.3).
  int64_t limit = window_ctl_.MaybeAck(ctx()->clock->Now(), forwarded_seq_);
  if (limit >= 0) {
    channel_->link->SendAck(limit);
    acks_sent_counter_.Add(1);
    receive_window_gauge_.Set(window_ctl_.window());
  }
  return saw_done_;
}

// ---------------------------------------------------------------------------
// NetworkEdgeFactory
// ---------------------------------------------------------------------------

int32_t NetworkEdgeFactory::EdgeIndexOf(const core::Edge& e) const {
  return static_cast<int32_t>(&e - params_.dag->edges().data());
}

int32_t NetworkEdgeFactory::LocalParallelismOf(core::VertexId v) const {
  int32_t p = params_.dag->vertex(v).local_parallelism;
  return p == -1 ? params_.threads : p;
}

core::ProcessorContext NetworkEdgeFactory::MakeContext(
    core::VertexId vertex, obs::MetricsRegistry* metrics) const {
  core::ProcessorContext ctx;
  ctx.meta.node_id = params_.node.node_id;
  ctx.meta.node_count = params_.node.node_count;
  ctx.clock = params_.clock;
  ctx.config = params_.config;
  ctx.cancelled = params_.cancelled;
  ctx.vertex_id = vertex;
  ctx.metrics = metrics;
  return ctx;
}

core::RemoteSink NetworkEdgeFactory::SenderFor(const core::Edge& e, int32_t dest_node,
                                               int32_t producer_local_index) {
  int32_t ei = EdgeIndexOf(e);
  auto& queues = sender_queues_[{ei, dest_node}];
  while (static_cast<int32_t>(queues.size()) <= producer_local_index) {
    queues.push_back(
        std::make_shared<core::ItemQueue>(static_cast<size_t>(e.queue_size)));
  }
  auto queue = queues[static_cast<size_t>(producer_local_index)];
  // The release hook unbinds the queue's producer guard when the producer
  // tasklet migrates to another cooperative worker.
  return core::RemoteSink(
      [queue](const core::Item& item) {
        core::Item copy = item;
        return queue->TryPush(copy);
      },
      [queue]() { queue->ReleaseProducerOwnership(); });
}

std::vector<core::ItemQueuePtr> NetworkEdgeFactory::ReceiverQueuesFor(
    const core::Edge& e, int32_t consumer_local_index) {
  int32_t ei = EdgeIndexOf(e);
  std::vector<core::ItemQueuePtr> result;
  for (int32_t from = 0; from < params_.node.node_count; ++from) {
    if (from == params_.node.node_id) continue;
    auto& queues = receiver_queues_[{ei, from}];
    while (static_cast<int32_t>(queues.size()) <= consumer_local_index) {
      queues.push_back(
          std::make_shared<core::ItemQueue>(static_cast<size_t>(e.queue_size)));
    }
    result.push_back(queues[static_cast<size_t>(consumer_local_index)]);
  }
  return result;
}

std::vector<std::unique_ptr<core::ProcessorTasklet>> NetworkEdgeFactory::TakeTasklets(
    obs::MetricsRegistry* metrics) {
  const core::NodeInfo& node = params_.node;
  std::vector<std::unique_ptr<core::ProcessorTasklet>> tasklets;

  for (auto& [key, queues] : sender_queues_) {
    auto [edge_index, dest_node] = key;
    const core::Edge& e = params_.dag->edges()[static_cast<size_t>(edge_index)];
    auto channel = registry_->GetOrCreate(edge_index, node.node_id, dest_node);
    auto processor = std::make_unique<SenderProcessor>(channel);

    core::InboundStream stream;
    stream.ordinal = 0;
    stream.priority = 0;
    for (auto& q : queues) {
      core::InboundQueue iq;
      iq.queue = q;
      stream.queues.push_back(std::move(iq));
    }
    std::vector<core::InboundStream> inputs;
    inputs.push_back(std::move(stream));

    std::string name = "sender:e" + std::to_string(edge_index) + "->n" +
                       std::to_string(dest_node) + "@n" + std::to_string(node.node_id);
    tasklets.push_back(std::make_unique<core::ProcessorTasklet>(
        std::move(name), std::move(processor), MakeContext(e.source, metrics),
        std::move(inputs), std::vector<core::OutboundCollector>{},
        params_.config.guarantee, params_.snapshot_control));
  }

  for (auto& [key, queues] : receiver_queues_) {
    auto [edge_index, from_node] = key;
    const core::Edge& e = params_.dag->edges()[static_cast<size_t>(edge_index)];
    auto channel = registry_->GetOrCreate(edge_index, from_node, node.node_id);
    auto processor = std::make_unique<ReceiverProcessor>(channel);

    int32_t dest_local = LocalParallelismOf(e.dest);
    std::vector<core::OutboundCollector> collectors;
    collectors.emplace_back(e.routing, queues, std::vector<core::RemoteSink>{},
                            node.node_count * dest_local, node.node_count, node.node_id,
                            /*isolated_index=*/-1);

    std::string name = "receiver:e" + std::to_string(edge_index) + "<-n" +
                       std::to_string(from_node) + "@n" + std::to_string(node.node_id);
    tasklets.push_back(std::make_unique<core::ProcessorTasklet>(
        std::move(name), std::move(processor), MakeContext(e.dest, metrics),
        std::vector<core::InboundStream>{}, std::move(collectors),
        params_.config.guarantee, params_.snapshot_control));
  }
  return tasklets;
}

}  // namespace jet::net
