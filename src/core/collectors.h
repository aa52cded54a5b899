#ifndef JETSIM_CORE_COLLECTORS_H_
#define JETSIM_CORE_COLLECTORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/debug_check.h"
#include "common/spsc_queue.h"
#include "core/dag.h"
#include "core/item.h"

namespace jet::core {

/// Queue type carrying items between tasklets.
using ItemQueue = SpscQueue<Item>;
using ItemQueuePtr = std::shared_ptr<ItemQueue>;

/// Delivery endpoint for a remote node on a distributed edge. `offer`
/// returns false when the channel is saturated (backpressure) and must not
/// consume the item. `release_owner` (optional) unbinds whatever
/// single-producer guard the sink's transport holds, so the producing
/// tasklet can migrate to another worker thread; it is called only at a
/// migration point, with a happens-before edge to the new worker's first
/// offer.
struct RemoteSink {
  std::function<bool(const Item&)> offer;
  std::function<void()> release_owner;

  RemoteSink() = default;
  RemoteSink(std::function<bool(const Item&)> o, std::function<void()> r)
      : offer(std::move(o)), release_owner(std::move(r)) {}
  /// Implicit from any offer callable, so plain-lambda sinks (tests,
  /// single-threaded transports with nothing to release) keep working.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RemoteSink> &&
                std::is_invocable_r_v<bool, F, const Item&>>>
  RemoteSink(F f) : offer(std::move(f)) {}  // NOLINT(google-explicit-constructor)

  bool operator()(const Item& item) const { return offer(item); }
};

/// Producer-side routing of one output edge (the "exchange operator" of
/// §3.1): decides which consumer queue (or remote node) each item goes to.
///
/// Data items route according to the edge's RoutingPolicy; control items
/// (watermarks, barriers, done markers) must reach *every* consumer queue
/// and every remote node, which `OfferControl` handles with resumable
/// progress so a full queue never drops or duplicates a control item.
class OutboundCollector {
 public:
  /// `queues[j]` is the SPSC queue into local consumer instance j that this
  /// producer owns; `remotes[r]` delivers to the r-th remote node.
  OutboundCollector(RoutingPolicy routing, std::vector<ItemQueuePtr> queues,
                    std::vector<RemoteSink> remotes, int32_t total_parallelism,
                    int32_t node_count, int32_t node_id, int32_t isolated_index = -1)
      : routing_(routing),
        queues_(std::move(queues)),
        remotes_(std::move(remotes)),
        total_parallelism_(total_parallelism),
        node_count_(node_count),
        node_id_(node_id),
        isolated_index_(isolated_index) {}

  /// Routes one data item. Returns false (nothing delivered) when the
  /// target queue/channel is full; the caller must retry with the same
  /// item later. Broadcast of data items uses resumable progress like
  /// control items.
  bool OfferData(const Item& item) {
    switch (routing_) {
      case RoutingPolicy::kUnicast:
        return OfferUnicast(item, nullptr);
      case RoutingPolicy::kPartitioned:
        return OfferPartitioned(item, nullptr);
      case RoutingPolicy::kBroadcast:
        return OfferEverywhere(item);
      case RoutingPolicy::kIsolated:
        return TryLocal(static_cast<size_t>(isolated_index_), item, nullptr);
    }
    return false;
  }

  /// Routes a run of data items [first, last), oldest first, and returns
  /// how many were delivered. They are always a prefix of the run, left
  /// moved-from; the caller keeps the rest, in order, for a later pass.
  /// An isolated edge, or a unicast edge with only local queues, moves the
  /// run into SPSC queues with one index publish per queue; unicast
  /// round-robin advances once per run, and a full queue falls through to
  /// the next one. Partitioned, broadcast and remote routes offer item by
  /// item.
  size_t OfferRun(Item* first, Item* last) {
    JET_DCHECK(window_queue_ == kNoWindow && "OfferRun while a window is open");
    if (routing_ == RoutingPolicy::kIsolated) {
      return queues_[static_cast<size_t>(isolated_index_)]->PushBatch(first, last);
    }
    if (routing_ == RoutingPolicy::kUnicast && remotes_.empty()) {
      return OfferUnicastRun(first, last);
    }
    size_t n = 0;
    while (first + n != last && OfferDataMove(first[n])) ++n;
    return n;
  }

  /// Delivers a control item to every local queue and every remote node.
  /// Safe to call repeatedly with the same item until it returns true.
  bool OfferControl(const Item& item) {
    JET_DCHECK(window_queue_ == kNoWindow && "OfferControl while a window is open");
    return OfferEverywhere(item);
  }

  /// True on the routes that OfferRun moves a whole run with one publish,
  /// the only ones that hand out windows.
  bool EmitsInPlace() const {
    return routing_ == RoutingPolicy::kIsolated ||
           (routing_ == RoutingPolicy::kUnicast && remotes_.empty() && !queues_.empty());
  }

  /// Claims a window of up to `limit` free slots in one local queue, in
  /// place, for the caller to build data items in: the isolated queue, or
  /// the unicast round-robin queue, falling through to the next one with
  /// room. Empty when the route does not emit in place or no queue has
  /// room. Nothing else may be offered until PublishWindow.
  std::span<Item> ClaimWindow(size_t limit) {
    JET_DCHECK(window_queue_ == kNoWindow && "ClaimWindow while a window is open");
    if (routing_ == RoutingPolicy::kIsolated) {
      return ClaimWindowIn(static_cast<size_t>(isolated_index_), limit);
    }
    if (!EmitsInPlace()) return {};
    for (size_t attempt = 0; attempt < queues_.size(); ++attempt) {
      std::span<Item> slots = ClaimWindowIn((cursor_ + attempt) % queues_.size(), limit);
      if (!slots.empty()) return slots;
    }
    return {};
  }

  /// Publishes the first `n` slots of the claimed window, which must hold
  /// built items, and closes it. Unicast round-robin moves past the
  /// window's queue when the window was not empty.
  void PublishWindow(size_t n) {
    JET_DCHECK(window_queue_ != kNoWindow && "PublishWindow without a window");
    queues_[window_queue_]->Publish(n);
    if (n > 0 && routing_ == RoutingPolicy::kUnicast) {
      cursor_ = (window_queue_ + 1) % queues_.size();
    }
    window_queue_ = kNoWindow;
  }

  /// Unbinds the producer guards of every local queue (and asks every
  /// remote sink to do the same) so this collector can be driven from a
  /// different worker thread. Migration-time only; the scheduler provides
  /// the happens-before edge.
  void ReleaseProducerOwnership() {
    for (auto& q : queues_) q->ReleaseProducerOwnership();
    for (auto& r : remotes_) {
      if (r.release_owner) r.release_owner();
    }
  }

  int32_t total_parallelism() const { return total_parallelism_; }

 private:
  // Move-aware OfferData for single-target routes: the item is moved into
  // the destination SPSC queue instead of copied. On success `item` is left
  // moved-from; on failure it is untouched so the caller can retry.
  // Broadcast still copies (every target needs its own copy); remote sinks
  // copy at the network boundary.
  bool OfferDataMove(Item& item) {
    switch (routing_) {
      case RoutingPolicy::kUnicast:
        return OfferUnicast(item, &item);
      case RoutingPolicy::kPartitioned:
        return OfferPartitioned(item, &item);
      case RoutingPolicy::kBroadcast:
        return OfferEverywhere(item);
      case RoutingPolicy::kIsolated:
        return TryLocal(static_cast<size_t>(isolated_index_), item, &item);
    }
    return false;
  }

  std::span<Item> ClaimWindowIn(size_t index, size_t limit) {
    std::span<Item> slots = queues_[index]->FreeRun(limit);
    if (!slots.empty()) window_queue_ = index;
    return slots;
  }

  // Unicast run into local queues only: as much of the run as fits goes
  // into the round-robin queue, the rest falls through to the next ones.
  size_t OfferUnicastRun(Item* first, Item* last) {
    const size_t n = queues_.size();
    const size_t start = cursor_;
    Item* next = first;
    for (size_t attempt = 0; attempt < n && next != last; ++attempt) {
      const size_t idx = (start + attempt) % n;
      const size_t pushed = queues_[idx]->PushBatch(next, last);
      if (pushed == 0) continue;
      next += pushed;
      cursor_ = (idx + 1) % n;
    }
    return static_cast<size_t>(next - first);
  }

  // Delivers to local queue `index`; moves from `move_from` when non-null
  // (SpscQueue::TryPush(T&) only consumes on success), else pushes a copy.
  bool TryLocal(size_t index, const Item& item, Item* move_from) {
    if (move_from != nullptr) return queues_[index]->TryPush(*move_from);
    Item copy = item;
    return queues_[index]->TryPush(copy);
  }

  bool OfferUnicast(const Item& item, Item* move_from) {
    // Prefer the next queue round-robin, but fall through to any queue
    // with space so one slow consumer doesn't block the rest.
    const size_t n = queues_.size() + remotes_.size();
    for (size_t attempt = 0; attempt < n; ++attempt) {
      size_t idx = (cursor_ + attempt) % n;
      bool delivered = idx < queues_.size()
                           ? TryLocal(idx, item, move_from)
                           : remotes_[idx - queues_.size()].offer(item);
      if (delivered) {
        cursor_ = (idx + 1) % n;
        return true;
      }
    }
    return false;
  }

  bool OfferPartitioned(const Item& item, Item* move_from) {
    // Global consumer index across the cluster; instances are laid out
    // node-major: global = node * local_parallelism + local_index.
    auto global = static_cast<int32_t>(item.key_hash %
                                       static_cast<uint64_t>(total_parallelism_));
    int32_t local_per_node = total_parallelism_ / node_count_;
    int32_t target_node = global / local_per_node;
    int32_t local_index = global % local_per_node;
    if (target_node == node_id_ || remotes_.empty()) {
      return TryLocal(static_cast<size_t>(local_index), item, move_from);
    }
    // remotes_ are ordered by node id, skipping self.
    size_t remote_idx =
        static_cast<size_t>(target_node > node_id_ ? target_node - 1 : target_node);
    return remotes_[remote_idx].offer(item);
  }

  bool OfferEverywhere(const Item& item) {
    // Resumable broadcast: remember how far we got if some queue is full.
    const size_t n = queues_.size() + remotes_.size();
    while (broadcast_progress_ < n) {
      size_t idx = broadcast_progress_;
      bool delivered = idx < queues_.size()
                           ? TryLocal(idx, item, nullptr)
                           : remotes_[idx - queues_.size()].offer(item);
      if (!delivered) return false;
      ++broadcast_progress_;
    }
    broadcast_progress_ = 0;
    return true;
  }

  RoutingPolicy routing_;
  std::vector<ItemQueuePtr> queues_;
  std::vector<RemoteSink> remotes_;
  int32_t total_parallelism_;
  int32_t node_count_;
  int32_t node_id_;
  int32_t isolated_index_;
  size_t cursor_ = 0;
  size_t broadcast_progress_ = 0;
  // The queue of the claimed window; kNoWindow while none is open.
  static constexpr size_t kNoWindow = SIZE_MAX;
  size_t window_queue_ = kNoWindow;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_COLLECTORS_H_
