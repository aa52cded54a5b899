#ifndef JETSIM_CORE_INBOX_OUTBOX_H_
#define JETSIM_CORE_INBOX_OUTBOX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/debug_check.h"
#include "common/serde.h"
#include "core/collectors.h"
#include "core/item.h"

namespace jet::core {

/// Batch of input items handed to a processor. The owning tasklet refills
/// the inbox from one inbound queue at a time (§3.2: "the tasklet refills
/// the processor's inbox with more input").
///
/// The processor consumes from the front with Peek/Poll; items it leaves in
/// place are re-offered on the next Process call (used when the outbox
/// fills up mid-batch).
///
/// The inbox is one [pos, end) span. The tasklet attaches it to a run of
/// data items in place in an inbound SPSC ring (AttachRun), and afterwards
/// frees the consumed slots with one tail publish (TakeConsumedRun); the
/// rest stays in the ring. Add (tests, benches, re-staging wrappers) moves
/// the span into the inbox's own storage.
///
/// Not thread-safe: the inbox belongs to exactly one tasklet, and every
/// mutating call must come from that tasklet's worker thread (checked under
/// JETSIM_DEBUG_CHECKS).
class Inbox {
 public:
  Inbox() = default;
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// True when no items remain.
  bool Empty() const { return pos_ == end_; }

  /// Number of items remaining.
  size_t Size() const { return static_cast<size_t>(end_ - pos_); }

  /// Returns the front item without removing it; nullptr when empty.
  const Item* Peek() const { return Empty() ? nullptr : pos_; }

  /// Removes and returns the front item. Requires !Empty().
  Item Poll() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (Poll)");
    JET_DCHECK(!Empty());
    Item item = std::move(*pos_);
    Advance(1);
    return item;
  }

  /// Removes the front item. Requires !Empty().
  void RemoveFront() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (RemoveFront)");
    JET_DCHECK(!Empty());
    Advance(1);
  }

  /// Adds an item at the back, in the inbox's own storage.
  void Add(Item item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (Add)");
    if (own_.empty()) {  // an attached run's rest moves here (all consumed)
      own_.assign(std::make_move_iterator(pos_), std::make_move_iterator(end_));
    } else {
      own_.erase(own_.begin(), own_.begin() + (pos_ - own_.data()));
    }
    own_.push_back(std::move(item));
    pos_ = own_.data();
    end_ = pos_ + own_.size();
  }

  /// Moves up to `limit` items from the front into `out` (appended).
  /// Returns the number moved. This is the batched consume path: one
  /// cursor bump instead of per-item pops.
  size_t DrainTo(std::vector<Item>* out, size_t limit) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (DrainTo)");
    const size_t n = std::min(limit, Size());
    out->insert(out->end(), std::make_move_iterator(pos_), std::make_move_iterator(pos_ + n));
    Advance(n);
    return n;
  }

  /// Tasklet side: points the span at [first, last), items that stay in
  /// their queue slots. The previous run must be fully taken back.
  void AttachRun(Item* first, Item* last) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (AttachRun)");
    JET_DCHECK(Empty() && run_ == 0);
    pos_ = first;
    end_ = last;
    run_ = static_cast<size_t>(last - first);
  }

  /// Tasklet side: how many attached items were consumed (or moved by Add)
  /// since the last call; the caller releases them from their queue.
  size_t TakeConsumedRun() {
    const size_t consumed = own_.empty() ? run_ - Size() : run_;
    run_ -= consumed;
    return consumed;
  }

  /// Unbinds the owner guard so the inbox can move to another worker
  /// thread (tasklet migration). The scheduler guarantees a happens-before
  /// edge between the old owner's last access and the new owner's first.
  void ReleaseOwner() { owner_guard_.Release(); }

 private:
  void Advance(size_t n) {
    pos_ += n;
    if (pos_ == end_ && !own_.empty()) {
      own_.clear();  // keeps the capacity for the next Add
      pos_ = end_ = nullptr;
    }
  }

  Item* pos_ = nullptr;
  Item* end_ = nullptr;
  // Attached run items not yet taken back by TakeConsumedRun.
  size_t run_ = 0;
  // Backs the span after Add; non-empty exactly while the span points here.
  std::vector<Item> own_;
  debug::ThreadOwnershipGuard owner_guard_;
};

/// One entry of processor state emitted during snapshotting.
struct StateEntry {
  uint64_t key_hash = 0;
  Bytes key;
  Bytes value;
};

/// Buffer for a processor's output (§3.2: "each processor includes ... an
/// outbox of output records to be dispatched downstream").
///
/// The outbox has one bucket per output edge plus a bucket for snapshot
/// state. Offers never fail, so a processor can hand over everything one
/// step produces (a flat-map's fan-out, a window flush, a whole snapshot)
/// without keeping a queue of its own. `HasRoom()` is the backpressure
/// signal: once an edge bucket holds `bucket_capacity` undelivered items
/// the processor should stop consuming input or generating events and
/// return. The tasklet delivers at most `bucket_capacity` items per bucket
/// per drain pass, and it empties the outbox before it forwards the next
/// watermark, barrier or Done, so control items never overtake output.
///
/// Each bucket is a flat vector drained through a head cursor (as in
/// Inbox): delivery costs O(items delivered), and a processor's offers
/// during one call append at the tail. An edge bucket is delivered a run
/// of consecutive data items at a time (DrainRuns), so a local queue can
/// take a whole run with a single index publish.
///
/// In-place emission: on an edge whose collector emits in place (see
/// AttachCollectors), a data item offered while the edge's bucket is empty
/// is built straight in a window of free slots of the downstream ring, at
/// most `bucket_capacity` of them; a full window is published and the next
/// one claimed. A control item, an item offered while the bucket holds
/// items, and one that finds the ring full go to the bucket, so the order
/// of offers is kept as long as the tasklet publishes the windows
/// (PublishWindows) before it drains the buckets. In-place items never
/// appear in bucket() and do not count against HasRoom().
///
/// Not thread-safe: offers and drains must all come from the owning
/// tasklet's worker thread (checked under JETSIM_DEBUG_CHECKS).
class Outbox {
 public:
  /// Creates an outbox with `edge_count` edge buckets; `bucket_capacity`
  /// is the backpressure threshold, the per-pass drain bound and the
  /// in-place window size.
  explicit Outbox(int edge_count, size_t bucket_capacity = 128)
      : buckets_(static_cast<size_t>(edge_count)),
        heads_(static_cast<size_t>(edge_count), 0),
        windows_(static_cast<size_t>(edge_count)),
        capacity_(bucket_capacity) {}

  /// Tasklet side: lets edge i emit in place through `collectors[i]` when
  /// that collector's route allows it. The collectors must outlive the
  /// outbox's use, and every window must be published before anything
  /// else is offered to them.
  void AttachCollectors(std::vector<OutboundCollector>& collectors) {
    JET_DCHECK(collectors.size() == windows_.size());
    for (size_t i = 0; i < windows_.size(); ++i) {
      windows_[i].collector = collectors[i].EmitsInPlace() ? &collectors[i] : nullptr;
    }
  }

  /// Appends an item to one output edge.
  void Offer(int ordinal, Item item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (Offer)");
    JET_DCHECK(ordinal >= 0 && ordinal < edge_count());
    const auto o = static_cast<size_t>(ordinal);
    if (!BuildInPlace(o, item)) buckets_[o].push_back(std::move(item));
  }

  /// Appends an item to every output edge. The item is *moved* into the
  /// last edge and copied into the first n-1 (a byte copy of an inline
  /// payload, a refcount bump of a boxed one), so the caller's item is
  /// consumed (left empty).
  void OfferToAll(Item&& item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (OfferToAll)");
    const size_t n = buckets_.size();
    for (size_t i = 0; i + 1 < n; ++i) {
      if (!BuildInPlace(i, std::as_const(item))) buckets_[i].push_back(item);
    }
    if (n > 0 && !BuildInPlace(n - 1, item)) buckets_[n - 1].push_back(std::move(item));
  }

  /// Appends a state entry to the snapshot bucket, which has no cap.
  void OfferToSnapshot(StateEntry entry) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (OfferToSnapshot)");
    snapshot_bucket_.push_back(std::move(entry));
  }

  /// True while every edge bucket holds fewer than `bucket_capacity`
  /// undelivered items. Always true without output edges.
  bool HasRoom() const {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].size() - heads_[i] >= capacity_) return false;
    }
    return true;
  }

  /// Number of output edges.
  int edge_count() const { return static_cast<int>(buckets_.size()); }

  /// True when all buckets (including snapshot) are drained.
  bool Empty() const {
    return snapshot_bucket_.size() == snapshot_head_ && PendingItems() == 0;
  }

  /// Items offered to the edge buckets and not yet delivered.
  size_t PendingItems() const {
    size_t n = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) n += buckets_[i].size() - heads_[i];
    return n;
  }

  /// Tasklet side: publishes every open in-place window to its ring and
  /// closes it. Returns the number of items published.
  size_t PublishWindows() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (PublishWindows)");
    size_t published = 0;
    for (Window& w : windows_) published += PublishWindow(w);
    return published;
  }

  /// Tasklet side: hands the undelivered items of edge bucket `ordinal`,
  /// oldest first, to `collector` (an OutboundCollector or anything with
  /// its OfferRun/OfferControl). Each contiguous run of data items goes to
  /// `OfferRun(first, last)`, which returns how long a prefix it took; a
  /// control item goes to `OfferControl` only once the whole run ahead of
  /// it is delivered. Stops at the first run not taken whole, the first
  /// control item refused, or after `bucket_capacity` items. Returns the
  /// number delivered.
  template <typename Collector>
  size_t DrainRuns(int ordinal, Collector& collector) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (DrainRuns)");
    const auto o = static_cast<size_t>(ordinal);
    std::vector<Item>& items = buckets_[o];
    size_t& head = heads_[o];
    size_t delivered = 0;
    while (delivered < capacity_ && head < items.size()) {
      Item* first = items.data() + head;
      if (!first->IsData()) {
        if (!collector.OfferControl(*first)) break;
        ++head;
        ++delivered;
        continue;
      }
      const size_t limit = std::min(items.size() - head, capacity_ - delivered);
      size_t run = 1;
      while (run < limit && first[run].IsData()) ++run;
      const size_t taken = collector.OfferRun(first, first + run);
      head += taken;
      delivered += taken;
      if (taken < run) break;
    }
    CompactFront(&items, &head);
    return delivered;
  }

  /// Tasklet side: hands the undelivered state entries, oldest first, to
  /// `deliver(StateEntry&)` until it returns false or `bucket_capacity`
  /// entries went out. Returns the number delivered.
  template <typename Deliver>
  size_t DrainSnapshot(Deliver&& deliver) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (DrainSnapshot)");
    size_t delivered = 0;
    while (delivered < capacity_ && snapshot_head_ < snapshot_bucket_.size() &&
           deliver(snapshot_bucket_[snapshot_head_])) {
      ++snapshot_head_;
      ++delivered;
    }
    CompactFront(&snapshot_bucket_, &snapshot_head_);
    return delivered;
  }

  /// Raw storage of one edge bucket. Items before the drain cursor were
  /// already delivered; a processor's offers append at the tail. Items
  /// built in place in a downstream ring never appear here.
  std::vector<Item>& bucket(int ordinal) { return buckets_[static_cast<size_t>(ordinal)]; }

  /// Raw storage of the snapshot bucket (same layout as bucket()).
  std::vector<StateEntry>& snapshot_bucket() { return snapshot_bucket_; }

  /// Unbinds the owner guard for tasklet migration (see Inbox::ReleaseOwner).
  /// Every in-place window must be published by then.
  void ReleaseOwner() {
    for (const Window& w : windows_) {
      JET_DCHECK(w.first == nullptr && "in-place window open at a worker handoff");
    }
    owner_guard_.Release();
  }

 private:
  // Resets a drained bucket, or drops its delivered prefix once that
  // outweighs what is left: moving the rest down then costs at most what
  // was delivered since the cursor last reset.
  template <typename T>
  static void CompactFront(std::vector<T>* items, size_t* head) {
    const size_t left = items->size() - *head;
    if (left == 0) {
      items->clear();
      *head = 0;
    } else if (*head >= left) {
      items->erase(items->begin(), items->begin() + static_cast<std::ptrdiff_t>(*head));
      *head = 0;
    }
  }

  // An edge's in-place window: items are built in [first, next), and
  // [next, end) is still free. All null while no window is claimed.
  struct Window {
    OutboundCollector* collector = nullptr;  // null: the edge never emits in place
    Item* first = nullptr;
    Item* next = nullptr;
    Item* end = nullptr;
  };

  // Builds `item` in edge o's window, copying a const item and moving from
  // any other, when it is a data item and the edge's bucket is empty; a
  // full window is published and the next one claimed. Returns false, with
  // `item` untouched, when the item must go to the bucket instead.
  template <typename I>
  bool BuildInPlace(size_t o, I& item) {
    if (!item.IsData() || heads_[o] != buckets_[o].size()) return false;
    Window& w = windows_[o];
    if (w.next == w.end && !ClaimWindow(w)) return false;
    if constexpr (std::is_const_v<I>) {
      std::construct_at(w.next, item);
    } else {
      std::construct_at(w.next, std::move(item));
    }
    ++w.next;
    return true;
  }

  bool ClaimWindow(Window& w) {
    if (w.collector == nullptr) return false;
    PublishWindow(w);
    const std::span<Item> slots = w.collector->ClaimWindow(capacity_);
    if (slots.empty()) return false;
    w.first = w.next = slots.data();
    w.end = w.first + slots.size();
    return true;
  }

  size_t PublishWindow(Window& w) {
    if (w.first == nullptr) return 0;
    const auto n = static_cast<size_t>(w.next - w.first);
    w.collector->PublishWindow(n);
    w.first = w.next = w.end = nullptr;
    return n;
  }

  std::vector<std::vector<Item>> buckets_;
  std::vector<size_t> heads_;
  std::vector<Window> windows_;
  std::vector<StateEntry> snapshot_bucket_;
  size_t snapshot_head_ = 0;
  size_t capacity_;
  debug::ThreadOwnershipGuard owner_guard_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_INBOX_OUTBOX_H_
