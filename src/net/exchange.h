#ifndef JETSIM_NET_EXCHANGE_H_
#define JETSIM_NET_EXCHANGE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/debug_check.h"
#include "common/thread_annotations.h"
#include "core/execution_plan.h"
#include "core/processor.h"
#include "core/tasklet.h"
#include "net/flow_control.h"
#include "net/network.h"
#include "net/wire_format.h"
#include "obs/metrics_registry.h"

namespace jet::net {

/// Thread-safe inbound buffer of a network receiver; the network delivery
/// thread pushes item batches, the receiver tasklet drains them.
///
/// Batches are kept as whole frames (one vector per Push) so a push is a
/// single move under the lock rather than a per-item copy loop, and a
/// drain can steal an entire frame wholesale — the serialized-batch path
/// of §3.1's exchange operators.
///
/// The mutex makes any interleaving memory-safe, but the exchange protocol
/// additionally requires a single pusher (the channel's delivery thread —
/// FIFO order would break with two) and a single drainer (the receiver
/// tasklet); both roles are asserted under JETSIM_DEBUG_CHECKS.
///
/// The drain side runs on a cooperative worker inside Processor hot paths;
/// its critical sections are bounded (vector moves only, the holder never
/// blocks), so the JET_COOPERATIVE methods are an audited boundary for the
/// jet-verify blocking checker rather than a violation.
class WireBuffer {
 public:
  void Push(std::vector<core::Item>&& batch) {
    JET_DCHECK_SINGLE_THREAD(pusher_guard_, "WireBuffer pusher (Push)");
    if (batch.empty()) return;
    jet::MutexLock lock(mutex_);
    size_ += batch.size();
    frames_.push_back(std::move(batch));
  }

  /// Moves up to `limit` items into `out`; returns the number moved. When
  /// `out` is empty and the front frame fits under `limit` whole, the frame
  /// is stolen with a single vector move.
  size_t DrainInto(std::vector<core::Item>* out, size_t limit) JET_COOPERATIVE {
    JET_DCHECK_SINGLE_THREAD(drainer_guard_, "WireBuffer drainer (DrainInto)");
    jet::MutexLock lock(mutex_);
    size_t n = 0;
    while (n < limit && !frames_.empty()) {
      std::vector<core::Item>& front = frames_.front();
      if (n == 0 && front_pos_ == 0 && out->empty() && front.size() <= limit) {
        n = front.size();
        *out = std::move(front);
        frames_.pop_front();
        continue;
      }
      while (n < limit && front_pos_ < front.size()) {
        out->push_back(std::move(front[front_pos_]));
        ++front_pos_;
        ++n;
      }
      if (front_pos_ == front.size()) {
        frames_.pop_front();
        front_pos_ = 0;
      } else {
        break;
      }
    }
    size_ -= n;
    return n;
  }

  size_t Size() const JET_COOPERATIVE {
    jet::MutexLock lock(mutex_);
    return size_;
  }

  /// Unbinds the drainer role; called when the receiver tasklet is handed
  /// to another cooperative worker (the scheduler's migration protocol
  /// orders the release before the new owner's first DrainInto).
  void ReleaseDrainer() { drainer_guard_.Release(); }

 private:
  mutable jet::Mutex mutex_;
  std::deque<std::vector<core::Item>> frames_ JET_GUARDED_BY(mutex_);
  // consumed prefix of frames_.front()
  size_t front_pos_ JET_GUARDED_BY(mutex_) = 0;
  // total items across frames
  size_t size_ JET_GUARDED_BY(mutex_) = 0;
  debug::ThreadOwnershipGuard pusher_guard_;
  debug::ThreadOwnershipGuard drainer_guard_;
};

/// Transport of one directed hop of one distributed edge. The exchange
/// processors are written against this interface alone, so the same
/// sender/receiver logic runs over the in-memory bus (InProcessFrameLink)
/// or a real socket to another OS process (procmode's SocketFrameLink) —
/// the §3.3 flow-control protocol is identical either way.
///
/// Both methods are called from cooperative tasklet hot paths and must be
/// bounded: enqueue-and-wake only, never blocking I/O.
class FrameLink {
 public:
  virtual ~FrameLink() = default;
  /// Ships one frame of items toward the receiver's WireBuffer.
  virtual void SendData(std::vector<core::Item>&& frame) JET_COOPERATIVE = 0;
  /// Ships a receive-window advance (new send limit) back to the sender.
  virtual void SendAck(int64_t new_limit) JET_COOPERATIVE = 0;
};

/// Rendezvous state of one directed network hop of one distributed edge:
/// sender on `from` node, receiver on `to` node.
struct ExchangeChannel {
  std::shared_ptr<WireBuffer> wire = std::make_shared<WireBuffer>();
  std::shared_ptr<SenderFlowState> flow = std::make_shared<SenderFlowState>();
  std::shared_ptr<FrameLink> link;
  ChannelId data_channel = 0;
  ChannelId ack_channel = 0;
};

/// Knobs applied to every channel an ExchangeRegistry creates.
struct ExchangeOptions {
  /// Round-trip every data/ack frame through the wire codec even though
  /// the hop is in-process. Opt-in: it makes the simulated cluster pay the
  /// real serialization cost (EXPERIMENTS.md) at the price of the copy.
  bool serialize_frames = false;
  /// Execution epoch stamped into frame headers. Process mode uses the
  /// attempt number so a dispatcher can discard stragglers from a
  /// torn-down attempt; in-process executions leave it 0.
  int64_t epoch = 0;
};

/// Registry shared by all nodes of one job execution, pairing senders with
/// receivers. Thread-safe. Subclasses (procmode) override MakeLink to put
/// channels on a real transport.
class ExchangeRegistry {
 public:
  /// `physical_node_ids` maps plan-local node index -> the member's
  /// physical id, so channels are endpoint-tagged and per-link faults
  /// (Network::SetLinkFault / Partition) apply to this execution's
  /// traffic. When empty, channels are untagged and immune to faults.
  explicit ExchangeRegistry(Network* network, std::vector<int32_t> physical_node_ids = {},
                            ExchangeOptions options = {})
      : network_(network),
        physical_node_ids_(std::move(physical_node_ids)),
        options_(options) {}
  virtual ~ExchangeRegistry() = default;

  /// Returns (creating on first use) the channel of (edge, from, to).
  std::shared_ptr<ExchangeChannel> GetOrCreate(int32_t edge_index, int32_t from_node,
                                               int32_t to_node);

  Network* network() const { return network_; }

  /// True once the bus dropped a frame of one of this execution's
  /// in-process links. That link carries nothing more, so the execution
  /// can neither commit nor complete past the loss: its owner restarts it.
  bool broken() const { return broken_->load(std::memory_order_acquire); }

 protected:
  /// Builds the transport for a freshly created channel. Called with the
  /// registry mutex held — implementations must not re-enter GetOrCreate.
  /// The default wires the channel over the in-memory bus.
  virtual std::shared_ptr<FrameLink> MakeLink(const ExchangeChannel& channel,
                                              int32_t edge_index, int32_t from_node,
                                              int32_t to_node);

  const ExchangeOptions& options() const { return options_; }

 private:
  int32_t PhysicalIdOf(int32_t plan_node) const;

  Network* network_;
  std::vector<int32_t> physical_node_ids_;
  ExchangeOptions options_;
  // Shared with the in-process links, which set it when a frame drops.
  std::shared_ptr<std::atomic<bool>> broken_ = std::make_shared<std::atomic<bool>>(false);
  jet::Mutex mutex_;
  std::map<std::tuple<int32_t, int32_t, int32_t>, std::shared_ptr<ExchangeChannel>>
      channels_ JET_GUARDED_BY(mutex_);
};

/// The sender-side exchange operator (§3.1): consumes the items the local
/// producers routed to one remote node and ships them over the network,
/// subject to the adaptive receive window (§3.3). Watermarks, snapshot
/// barriers and completion all travel through the same FIFO channel. The
/// hosting ProcessorTasklet performs the per-producer watermark coalescing
/// and exactly-once barrier alignment before this processor sees anything.
class SenderProcessor final : public core::Processor {
 public:
  explicit SenderProcessor(std::shared_ptr<ExchangeChannel> channel, int32_t max_batch = 64);

  Status Init(core::ProcessorContext* ctx) override;
  void Process(int ordinal, core::Inbox* inbox) override;
  bool TryProcessWatermark(Nanos wm) override;
  bool OnSnapshotCompleted(int64_t snapshot_id) override;
  bool Complete() override;

  int64_t items_sent() const { return sent_seq_; }

 private:
  void SendBatch(std::vector<core::Item>&& batch);

  std::shared_ptr<ExchangeChannel> channel_;
  int32_t max_batch_;
  int64_t sent_seq_ = 0;
  bool done_sent_ = false;

  // Flow-control instruments (§3.3), written only by the hosting tasklet's
  // worker thread; the send-limit gauge is a registry callback reading the
  // atomic SenderFlowState instead. batch_size records how many items each
  // wire frame carried — the lever the batched exchange path optimizes.
  obs::Counter items_sent_counter_;
  obs::Gauge window_available_gauge_;
  obs::HistogramHandle batch_size_hist_{/*max_value=*/64 * 1024};
};

/// The receiver-side exchange operator: drains the wire buffer, re-emits
/// data and control items to the local consumer queues, and acknowledges
/// progress every ack interval so the sender's window advances (§3.3).
/// Runs as an input-less tasklet but does NOT initiate snapshots — it
/// forwards the barriers that arrive on the wire.
class ReceiverProcessor final : public core::Processor {
 public:
  explicit ReceiverProcessor(std::shared_ptr<ExchangeChannel> channel,
                             ReceiveWindowController::Options window_options = {});

  Status Init(core::ProcessorContext* ctx) override;
  bool Complete() override;
  bool InitiatesSnapshots() const override { return false; }

  /// The receiver's worker thread holds the wire buffer's drainer role;
  /// unbind it so a migration can rebind on the new worker.
  void ReleaseWorkerOwnership() override { channel_->wire->ReleaseDrainer(); }

  int64_t items_forwarded() const { return forwarded_seq_; }
  int64_t current_window() const { return window_ctl_.window(); }

 private:
  std::shared_ptr<ExchangeChannel> channel_;
  ReceiveWindowController window_ctl_;
  // The wire frame being forwarded (drained with a single vector steal).
  std::vector<core::Item> staged_;
  int64_t forwarded_seq_ = 0;
  bool saw_done_ = false;

  // Receiver-side instruments: forwarded items, acks put on the wire, and
  // the adaptive receive-window size after each recalculation (§3.3). The
  // wire-buffer depth is a registry callback (WireBuffer::Size is
  // mutex-safe).
  obs::Counter items_forwarded_counter_;
  obs::Counter acks_sent_counter_;
  obs::Gauge receive_window_gauge_;
};

/// Builds the cross-node plumbing for one node of a multi-node execution:
/// implements core::RemoteEdgeFactory for ExecutionPlan::Build, whose plan
/// takes the sender/receiver tasklets.
class NetworkEdgeFactory final : public core::RemoteEdgeFactory {
 public:
  /// `registry` is shared by all nodes of the execution; `params` describe
  /// this node's member and must outlive the factory.
  NetworkEdgeFactory(ExchangeRegistry* registry, const core::MemberParams& params)
      : registry_(registry), params_(params) {}

  core::RemoteSink SenderFor(const core::Edge& e, int32_t dest_node,
                             int32_t producer_local_index) override;

  std::vector<core::ItemQueuePtr> ReceiverQueuesFor(
      const core::Edge& e, int32_t consumer_local_index) override;

  std::vector<std::unique_ptr<core::ProcessorTasklet>> TakeTasklets(
      obs::MetricsRegistry* metrics) override;

 private:
  int32_t EdgeIndexOf(const core::Edge& e) const;
  int32_t LocalParallelismOf(core::VertexId v) const;
  core::ProcessorContext MakeContext(core::VertexId vertex,
                                     obs::MetricsRegistry* metrics) const;

  ExchangeRegistry* registry_;
  const core::MemberParams& params_;

  // (edge_index, dest_node) -> per-producer queues feeding the sender.
  std::map<std::pair<int32_t, int32_t>, std::vector<core::ItemQueuePtr>> sender_queues_;
  // (edge_index, from_node) -> per-consumer-instance queues the receiver
  // fills.
  std::map<std::pair<int32_t, int32_t>, std::vector<core::ItemQueuePtr>> receiver_queues_;
};

}  // namespace jet::net

#endif  // JETSIM_NET_EXCHANGE_H_
