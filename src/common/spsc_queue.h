#ifndef JETSIM_COMMON_SPSC_QUEUE_H_
#define JETSIM_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "common/debug_check.h"

namespace jet {

/// Wait-free bounded single-producer/single-consumer ring queue.
///
/// This is the data-exchange primitive between tasklets described in §3.2 of
/// the paper: "Tasklets within the same node exchange data through
/// shared-memory, single-producer-single-consumer queues that use wait-free
/// algorithms." Producer and consumer each cache the other side's index to
/// avoid cache-line ping-pong; indices live on separate cache lines.
///
/// Exactly one thread may call the producer methods (TryPush/PushBatch/
/// FreeRun/Publish) and exactly one thread the consumer methods
/// (TryPop/DrainTo/...). Capacity is rounded up to a power of two. Slot
/// storage is raw: an element is constructed in its slot on push and
/// destroyed on pop, so creating a queue costs one allocation however large
/// T is, and an empty slot holds no object. Under JETSIM_DEBUG_CHECKS each
/// side's role binds to the first thread that exercises it and any second
/// thread aborts (see debug::ThreadOwnershipGuard).
template <typename T>
class SpscQueue {
 public:
  /// Creates a queue that can hold up to `capacity` items (rounded up to the
  /// next power of two, minimum 2).
  explicit SpscQueue(size_t capacity)
      : capacity_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity)),
        mask_(capacity_ - 1),
        slots_(std::allocator<T>().allocate(capacity_)) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Destroys the items still enqueued. Neither side may be in use.
  ~SpscQueue() {
    const size_t head = head_.load(std::memory_order_acquire);
    for (size_t i = tail_.load(std::memory_order_relaxed); i != head; ++i) {
      std::destroy_at(&slots_[i & mask_]);
    }
    std::allocator<T>().deallocate(slots_, capacity_);
  }

  /// Producer: attempts to enqueue `item`. Returns false if the queue is
  /// full (item is left untouched so the caller can retry later).
  bool TryPush(T& item) {
    JET_DCHECK_SINGLE_THREAD(producer_guard_, "SpscQueue producer (TryPush)");
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= capacity_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= capacity_) return false;
    }
    std::construct_at(&slots_[head & mask_], std::move(item));
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer: rvalue convenience overload. As above, `item` is moved from
  /// only when the push succeeds.
  bool TryPush(T&& item) { return TryPush(item); }

  /// Producer: enqueues items from [first, last) until the queue fills up.
  /// Returns the number of items enqueued, always a prefix of the range.
  /// Enqueued items are moved-from. However many items go in, the head
  /// index is published once; the consumer's tail is re-read only when the
  /// cached view has too little room for the whole range.
  template <typename It>
  size_t PushBatch(It first, It last) {
    JET_DCHECK_SINGLE_THREAD(producer_guard_, "SpscQueue producer (PushBatch)");
    const auto wanted = static_cast<size_t>(std::distance(first, last));
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t free_slots = capacity_ - (head - cached_tail_);
    if (free_slots < wanted) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      free_slots = capacity_ - (head - cached_tail_);
    }
    const size_t n = wanted < free_slots ? wanted : free_slots;
    if (n == 0) return 0;
    for (size_t i = 0; i < n; ++i, ++first) {
      std::construct_at(&slots_[(head + i) & mask_], std::move(*first));
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Producer: returns the free slots at head, in place, for the caller to
  /// build items in (std::construct_at) and then Publish. The run stops
  /// after `limit` slots and at the end of the slot array; it is empty when
  /// the queue is full. Tail is re-read only when the cached view has fewer
  /// than `limit` free slots. Items built but not yet published are
  /// invisible to the consumer.
  std::span<T> FreeRun(size_t limit) {
    JET_DCHECK_SINGLE_THREAD(producer_guard_, "SpscQueue producer (FreeRun)");
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t to_wrap = capacity_ - (head & mask_);
    if (to_wrap < limit) limit = to_wrap;
    if (capacity_ - (head - cached_tail_) < limit) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
    }
    const size_t free_slots = capacity_ - (head - cached_tail_);
    return {&slots_[head & mask_], free_slots < limit ? free_slots : limit};
  }

  /// Producer: makes the `n` items built at the front of the last FreeRun
  /// visible to the consumer with one head publish.
  void Publish(size_t n) {
    JET_DCHECK_SINGLE_THREAD(producer_guard_, "SpscQueue producer (Publish)");
    if (n == 0) return;
    const size_t head = head_.load(std::memory_order_relaxed);
    JET_DCHECK(capacity_ - (head - cached_tail_) >= n &&
               "Publish past the producer's view of tail");
    head_.store(head + n, std::memory_order_release);
  }

  /// Consumer: attempts to dequeue into `out`. Returns false if empty.
  bool TryPop(T& out) {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (TryPop)");
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ == tail) return false;
    }
    T& slot = slots_[tail & mask_];
    out = std::move(slot);
    std::destroy_at(&slot);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: moves up to `limit` items into `sink` (a callable taking
  /// `T&&`). Returns the number of items drained.
  template <typename Sink>
  size_t DrainTo(Sink&& sink, size_t limit) {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (DrainTo)");
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t available = cached_head_ - tail;
    if (available == 0) {
      cached_head_ = head_.load(std::memory_order_acquire);
      available = cached_head_ - tail;
      if (available == 0) return 0;
    }
    const size_t n = available < limit ? available : limit;
    for (size_t i = 0; i < n; ++i) {
      T& slot = slots_[(tail + i) & mask_];
      sink(std::move(slot));
      std::destroy_at(&slot);
    }
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer: returns the front run of items in place; they stay enqueued
  /// until Release. The run stops before the first item `pred` rejects,
  /// after `limit` items, and at the end of the slot array (the call after
  /// the Release returns the rest of a run cut by the wrap).
  template <typename Pred>
  std::span<T> FrontRun(Pred&& pred, size_t limit) {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (FrontRun)");
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t to_wrap = capacity_ - (tail & mask_);
    if (to_wrap < limit) limit = to_wrap;
    // Re-read head only when the cached view holds less than a full run.
    if (cached_head_ - tail < limit) cached_head_ = head_.load(std::memory_order_acquire);
    const size_t max = cached_head_ - tail < limit ? cached_head_ - tail : limit;
    T* const first = &slots_[tail & mask_];
    size_t n = 0;
    while (n < max && pred(static_cast<const T&>(first[n]))) ++n;
    return {first, n};
  }

  /// Consumer: destroys the `n` front items (a FrontRun prefix the caller
  /// may have moved from) and frees their slots with one tail publish.
  void Release(size_t n) {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (Release)");
    if (n == 0) return;
    const size_t tail = tail_.load(std::memory_order_relaxed);
    JET_DCHECK(cached_head_ - tail >= n && "Release past the consumer's view of head");
    for (size_t i = 0; i < n; ++i) std::destroy_at(&slots_[(tail + i) & mask_]);
    tail_.store(tail + n, std::memory_order_release);
  }

  /// Consumer: returns a pointer to the front item without removing it, or
  /// nullptr if the queue is empty.
  T* Peek() {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (Peek)");
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ == tail) return nullptr;
    }
    return &slots_[tail & mask_];
  }

  /// Consumer: removes the front item. Requires a preceding successful
  /// Peek() on the same thread (checked under JETSIM_DEBUG_CHECKS).
  void PopFront() {
    JET_DCHECK_SINGLE_THREAD(consumer_guard_, "SpscQueue consumer (PopFront)");
    const size_t tail = tail_.load(std::memory_order_relaxed);
    JET_DCHECK(cached_head_ != tail && "PopFront without preceding Peek");
    std::destroy_at(&slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Approximate number of enqueued items (exact if called by the consumer
  /// with no concurrent producer, and vice versa). Loads tail before head:
  /// tail never overtakes head, so the difference cannot underflow, and the
  /// clamp bounds the transient overshoot that is possible when both sides
  /// move between the two loads. The result is always <= capacity().
  size_t SizeApprox() const {
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t diff = head - tail;
    return diff > capacity_ ? capacity_ : diff;
  }

  /// True if the queue appears empty.
  bool EmptyApprox() const { return SizeApprox() == 0; }

  /// Fixed capacity of the queue.
  size_t capacity() const { return capacity_; }

  /// Test hook: starts both indices (and the cached mirrors) at `start`, so
  /// wraparound of the unsigned indices — e.g. head near SIZE_MAX — can be
  /// exercised without 2^64 pushes. Only valid on a queue that has never
  /// been used.
  void SeedIndexesForTest(size_t start) {
    assert(head_.load(std::memory_order_relaxed) == 0 &&
           tail_.load(std::memory_order_relaxed) == 0 && "queue already used");
    // jet-verify: allow(single-writer) — test hook on a never-used queue:
    // no concurrent producer/consumer exists yet, nothing is published
    head_.store(start, std::memory_order_relaxed);
    tail_.store(start, std::memory_order_relaxed);
    cached_tail_ = start;
    cached_head_ = start;
  }

  /// Unbinds the producer ownership guard so the producing role can be
  /// handed to another thread. The caller must guarantee a happens-before
  /// edge between the old producer's last push and the new producer's first
  /// (the ExecutionService migration protocol does this with the worker
  /// mailbox mutex). No-op unless JETSIM_DEBUG_CHECKS is enabled.
  void ReleaseProducerOwnership() { producer_guard_.Release(); }

  /// Consumer-side counterpart of ReleaseProducerOwnership.
  void ReleaseConsumerOwnership() { consumer_guard_.Release(); }

 private:
  static constexpr size_t kCacheLine = 64;

  const size_t capacity_;
  const size_t mask_;
  T* const slots_;  // capacity_ slots; only [tail_, head_) hold live objects

  alignas(kCacheLine) std::atomic<size_t> head_{0};  // next write position
  alignas(kCacheLine) size_t cached_tail_{0};        // producer's view of tail_
  alignas(kCacheLine) std::atomic<size_t> tail_{0};  // next read position
  alignas(kCacheLine) size_t cached_head_{0};        // consumer's view of head_

  // Debug-only single-producer/single-consumer discipline checks; empty
  // types in release builds. Kept off the index cache lines.
  alignas(kCacheLine) debug::ThreadOwnershipGuard producer_guard_;
  debug::ThreadOwnershipGuard consumer_guard_;
};

}  // namespace jet

#endif  // JETSIM_COMMON_SPSC_QUEUE_H_
