#ifndef JETSIM_CORE_PROCESSORS_BASIC_H_
#define JETSIM_CORE_PROCESSORS_BASIC_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "core/processor.h"
#include "core/watermark.h"

namespace jet::core {

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

/// One output record of a flat-map function. Unset fields inherit the input
/// item's timestamp / key hash.
template <typename Out>
struct OutRecord {
  Out value;
  std::optional<Nanos> timestamp;
  std::optional<uint64_t> key_hash;
};

/// Stateless record-at-a-time transform covering map, filter and flatMap:
/// for each input of type `In` the function appends zero or more
/// `OutRecord<Out>` to the supplied buffer. This is the hand-built DAG's
/// transform; the pipeline planner fuses consecutive stateless stages into
/// one pipeline::FusedStatelessP instead (§3.1 operator fusion).
template <typename In, typename Out>
class FlatMapP final : public Processor {
 public:
  using Fn = std::function<void(const In&, std::vector<OutRecord<Out>>*)>;

  explicit FlatMapP(Fn fn) : fn_(std::move(fn)) {}

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    Outbox* outbox = ctx()->outbox;
    while (!inbox->Empty() && outbox->HasRoom()) {
      const Item* item = inbox->Peek();
      buf_.clear();
      fn_(item->payload.As<In>(), &buf_);
      for (auto& rec : buf_) {
        Nanos ts = rec.timestamp.value_or(item->timestamp);
        uint64_t key = rec.key_hash.value_or(item->key_hash);
        outbox->OfferToAll(Item::Data<Out>(std::move(rec.value), ts, key));
      }
      inbox->RemoveFront();
    }
  }

 private:
  Fn fn_;
  std::vector<OutRecord<Out>> buf_;
};

/// Convenience factory: 1-to-1 map.
template <typename In, typename Out>
std::unique_ptr<Processor> MakeMapP(std::function<Out(const In&)> fn) {
  return std::make_unique<FlatMapP<In, Out>>(
      [fn = std::move(fn)](const In& in, std::vector<OutRecord<Out>>* out) {
        out->push_back(OutRecord<Out>{fn(in), std::nullopt, std::nullopt});
      });
}

/// Convenience factory: filter (Out == In).
template <typename In>
std::unique_ptr<Processor> MakeFilterP(std::function<bool(const In&)> pred) {
  return std::make_unique<FlatMapP<In, In>>(
      [pred = std::move(pred)](const In& in, std::vector<OutRecord<In>>* out) {
        if (pred(in)) out->push_back(OutRecord<In>{in, std::nullopt, std::nullopt});
      });
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Rate-controlled, replayable generator source implementing the paper's
/// latency methodology (§7.1): every event has a *predetermined time of
/// occurrence*; the source may only emit it once the clock passes that
/// time, and any emission delay counts against the reported latency
/// because downstream latency is measured from the event timestamp.
///
/// The global event sequence is sharded over `virtual_partitions` fixed
/// shards (a Kafka-like replayable source, §4.5): global sequence `s`
/// belongs to shard `s % virtual_partitions`, and instance `i` of `P`
/// owns the shards `{v : v % P == i}`. Sharding by a *fixed* count makes
/// the per-shard replay cursors redistribute cleanly when the job is
/// rescaled to a different parallelism after recovery.
///
/// Event `s` occurs at `s / events_per_second` after the start time. The
/// source emits a watermark after each batch (bounded by
/// `watermark_interval` of event time) and completes after `duration` of
/// event time, which flushes all windows downstream.
template <typename Out>
class GeneratorSourceP final : public Processor {
 public:
  /// Produces the event with global sequence number `seq`, returning its
  /// value and key hash.
  using GenFn = std::function<std::pair<Out, uint64_t>(int64_t seq)>;

  struct Options {
    double events_per_second = 1'000'000;
    /// Total event time to generate; the job completes afterwards.
    Nanos duration = kNanosPerSecond;
    /// Max event-time distance between watermarks.
    Nanos watermark_interval = kNanosPerMilli;
    /// Max events emitted per Complete() call (time-slice bound).
    int32_t max_batch = 256;
    /// Absolute clock value to anchor event time 0 at; -1 anchors each
    /// instance at its first Complete() call. Pass a common value so all
    /// parallel instances agree on event occurrence times.
    Nanos start_time = -1;
    /// Fixed shard count of the replayable sequence space. Must be >= the
    /// source's total parallelism.
    int32_t virtual_partitions = 64;
    /// Bounded out-of-orderness: each event's timestamp is shifted back by
    /// a deterministic pseudo-random amount in [0, max_disorder), while
    /// emission still follows the original schedule. Watermarks lag by
    /// max_disorder so no emitted watermark is ever violated (the
    /// out-of-order processing model of [Li et al. 2008] the paper builds
    /// on).
    Nanos max_disorder = 0;
  };

  GeneratorSourceP(GenFn gen, Options options)
      : gen_(std::move(gen)), options_(options) {}

  Status Init(ProcessorContext* context) override {
    JET_RETURN_IF_ERROR(Processor::Init(context));
    const int32_t total = context->meta.total_parallelism;
    const int32_t vp_count = options_.virtual_partitions;
    if (vp_count < total) {
      return InvalidArgumentError("virtual_partitions below source parallelism");
    }
    period_ = static_cast<Nanos>(1e9 / options_.events_per_second);
    if (period_ < 1) period_ = 1;
    for (int32_t vp = context->meta.global_index; vp < vp_count; vp += total) {
      shards_.push_back(Shard{vp, /*next_round=*/0});
    }
    return Status::OK();
  }

  bool Complete() override {
    if (ctx()->IsCancelled()) return true;
    if (shards_.empty()) return true;
    if (!ring_built_) BuildRing();
    const Nanos now = ctx()->clock->Now();
    const auto vp_count = static_cast<int64_t>(options_.virtual_partitions);
    int32_t budget = options_.max_batch;
    while (budget-- > 0 && ctx()->outbox->HasRoom()) {
      if (ring_.empty()) {
        // All shards exhausted: emit a final watermark so downstream
        // windows flush, then finish.
        ctx()->outbox->OfferToAll(Item::WatermarkAt(kMaxWatermark));
        return true;
      }
      // The next event overall is the unexhausted shard with the earliest
      // next event time, the lowest shard index breaking ties.
      const auto [event_time, index] = ring_[ring_head_];
      if (event_time > now) break;  // not yet due
      Shard* next = &shards_[index];
      const int64_t seq = next->NextSeq(vp_count);
      auto [value, key_hash] = gen_(seq);
      Nanos stamped_time = event_time;
      if (options_.max_disorder > 0) {
        stamped_time -= static_cast<Nanos>(
            HashU64(static_cast<uint64_t>(seq) ^ 0xD15C0DEDULL) %
            static_cast<uint64_t>(options_.max_disorder));
        if (stamped_time < 0) stamped_time = 0;
      }
      ctx()->outbox->OfferToAll(Item::Data<Out>(std::move(value), stamped_time, key_hash));
      ++next->next_round;
      if (Exhausted(*next)) {
        ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
        if (ring_head_ == ring_.size()) ring_head_ = 0;
      } else {
        AdvanceFront({next->NextEventTime(vp_count, period_), index});
      }
      if (event_time > last_emitted_ts_) last_emitted_ts_ = event_time;
      ++events_emitted_;
      if (last_emitted_ts_ - last_wm_ >= options_.watermark_interval) {
        // The watermark trails the schedule by the disorder bound, so no
        // future event can be stamped at or before it.
        ctx()->outbox->OfferToAll(
            Item::WatermarkAt(last_emitted_ts_ - options_.max_disorder));
        last_wm_ = last_emitted_ts_;
      }
    }
    return false;
  }

  bool SaveToSnapshot() override {
    // One entry per shard, keyed by the shard id so a rescaled job routes
    // each replay cursor to the shard's new owner.
    for (const Shard& shard : shards_) {
      StateEntry entry;
      entry.key_hash = static_cast<uint64_t>(shard.vp);
      BytesWriter key;
      key.WriteVarU64(static_cast<uint64_t>(shard.vp));
      entry.key = key.Take();
      BytesWriter value;
      value.WriteVarI64(shard.next_round);
      value.WriteI64(shard.start_time);
      value.WriteI64(last_wm_);
      entry.value = value.Take();
      ctx()->outbox->OfferToSnapshot(std::move(entry));
    }
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint64_t vp = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&vp));
    BytesReader vr(entry.value);
    int64_t next_round = 0;
    Nanos start = 0;
    Nanos wm = 0;
    JET_RETURN_IF_ERROR(vr.ReadVarI64(&next_round));
    JET_RETURN_IF_ERROR(vr.ReadI64(&start));
    JET_RETURN_IF_ERROR(vr.ReadI64(&wm));
    for (auto& shard : shards_) {
      if (shard.vp == static_cast<int32_t>(vp)) {
        shard.next_round = next_round;
        shard.start_time = start;  // replay with the original anchor
      }
    }
    if (start_time_ < 0 || start < start_time_) start_time_ = start;
    if (wm > last_wm_) last_wm_ = wm;
    ring_built_ = false;  // a cursor or anchor moved: re-rank the shards
    return Status::OK();
  }

  int64_t events_emitted() const { return events_emitted_; }

 private:
  struct Shard {
    int32_t vp = 0;
    int64_t next_round = 0;   // events this shard has emitted
    Nanos start_time = -1;    // event-time anchor this shard was born with

    int64_t NextSeq(int64_t vp_count) const { return next_round * vp_count + vp; }
    Nanos NextEventTime(int64_t vp_count, Nanos period) const {
      return start_time + NextSeq(vp_count) * period;
    }
  };

  bool Exhausted(const Shard& shard) const {
    return shard.NextSeq(options_.virtual_partitions) * period_ >= options_.duration;
  }

  // Anchors event time and ranks the unexhausted shards by next event time.
  // Runs on the first Complete() and again after a restore.
  void BuildRing() {
    if (start_time_ < 0) {
      // Anchor event time: either the shared configured start or this
      // instance's first Complete() call. The anchor is per *shard* — a
      // shard restored from a snapshot keeps the anchor it was generated
      // with, so replayed events reproduce their original timestamps even
      // when a rescale moves shards between instances with different
      // anchors.
      start_time_ = options_.start_time >= 0 ? options_.start_time : ctx()->clock->Now();
    }
    const auto vp_count = static_cast<int64_t>(options_.virtual_partitions);
    ring_.clear();
    ring_head_ = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = shards_[i];
      if (shard.start_time < 0) shard.start_time = start_time_;
      if (!Exhausted(shard)) ring_.emplace_back(shard.NextEventTime(vp_count, period_), i);
    }
    std::sort(ring_.begin(), ring_.end());
    ring_built_ = true;
  }

  // Gives the front shard its new rank `key`. With a common anchor and even
  // cursors (the steady state) the shard that just emitted is due after
  // every other one, so it rotates to the back in O(1); otherwise (uneven
  // cursors after a restore) it is re-inserted in order.
  void AdvanceFront(std::pair<Nanos, size_t> key) {
    const size_t back = (ring_head_ == 0 ? ring_.size() : ring_head_) - 1;
    if (key > ring_[back]) {
      ring_[ring_head_] = key;
      if (++ring_head_ == ring_.size()) ring_head_ = 0;
      return;
    }
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
                ring_.end());
    ring_head_ = 0;
    ring_.front() = key;
    std::rotate(ring_.begin(), ring_.begin() + 1,
                std::lower_bound(ring_.begin() + 1, ring_.end(), key));
  }

  GenFn gen_;
  Options options_;
  std::vector<Shard> shards_;
  // The unexhausted shards as (next event time, index into shards_), sorted
  // as a ring that starts at ring_head_; the head is the shard that emits
  // next.
  std::vector<std::pair<Nanos, size_t>> ring_;
  size_t ring_head_ = 0;
  bool ring_built_ = false;
  Nanos period_ = 1000;
  Nanos start_time_ = -1;
  Nanos last_emitted_ts_ = kMinWatermark;
  Nanos last_wm_ = 0;
  int64_t events_emitted_ = 0;
};

/// Batch source that emits a fixed list of records (with timestamp 0) and
/// completes. Used for hash-join build sides and tests.
template <typename Out>
class ListSourceP final : public Processor {
 public:
  /// `records` are (value, key_hash) pairs; the instance emits its
  /// round-robin share.
  explicit ListSourceP(std::shared_ptr<const std::vector<std::pair<Out, uint64_t>>> records)
      : records_(std::move(records)) {}

  Status Init(ProcessorContext* context) override {
    JET_RETURN_IF_ERROR(Processor::Init(context));
    index_ = context->meta.global_index;
    stride_ = context->meta.total_parallelism;
    return Status::OK();
  }

  bool Complete() override {
    const auto size = static_cast<int64_t>(records_->size());
    while (index_ < size && ctx()->outbox->HasRoom()) {
      const auto& [value, key] = (*records_)[static_cast<size_t>(index_)];
      ctx()->outbox->OfferToAll(Item::Data<Out>(value, 0, key));
      index_ += stride_;
    }
    return index_ >= size;
  }

 private:
  std::shared_ptr<const std::vector<std::pair<Out, uint64_t>>> records_;
  int64_t index_ = 0;
  int32_t stride_ = 1;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Thread-safe collection target shared by the parallel instances of a
/// CollectSinkP.
template <typename T>
class SyncCollector {
 public:
  /// Called from Processor::Process on a cooperative worker; the critical
  /// section is one push_back, an audited bounded lock.
  void Add(const T& value) JET_COOPERATIVE {
    jet::MutexLock lock(mutex_);
    values_.push_back(value);
  }

  std::vector<T> Snapshot() const {
    jet::MutexLock lock(mutex_);
    return values_;
  }

  size_t Size() const {
    jet::MutexLock lock(mutex_);
    return values_.size();
  }

 private:
  mutable jet::Mutex mutex_;
  std::vector<T> values_ JET_GUARDED_BY(mutex_);
};

/// Sink collecting all received values into a SyncCollector (tests and
/// examples).
template <typename In>
class CollectSinkP final : public Processor {
 public:
  explicit CollectSinkP(std::shared_ptr<SyncCollector<In>> collector)
      : collector_(std::move(collector)) {}

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty()) {
      collector_->Add(inbox->Peek()->payload.template As<In>());
      inbox->RemoveFront();
    }
  }

 private:
  std::shared_ptr<SyncCollector<In>> collector_;
};

/// Aggregates per-instance latency histograms of LatencySinkP instances.
class LatencyRecorder {
 public:
  /// Registers a new per-instance histogram; the pointer stays valid for
  /// the recorder's lifetime.
  Histogram* NewHistogram() {
    jet::MutexLock lock(mutex_);
    histograms_.emplace_back();
    return &histograms_.back();
  }

  /// Merged view across all instances. Only call when the job is quiesced
  /// (instances record without locking).
  Histogram Merged() const {
    jet::MutexLock lock(mutex_);
    Histogram merged;
    for (const auto& h : histograms_) merged.Merge(h);
    return merged;
  }

 private:
  // Guards the deque's *structure* only; instances write their Histogram
  // cells without the lock (see Merged's contract).
  mutable jet::Mutex mutex_;
  std::deque<Histogram> histograms_ JET_GUARDED_BY(mutex_);
};

/// Sink recording, for every received item, the difference between the
/// current clock reading and the item's timestamp — the end-to-end latency
/// metric of §7.1 (for window results the item timestamp is the window end
/// time, so the recorded value is "emission delay past window close").
class LatencySinkP final : public Processor {
 public:
  explicit LatencySinkP(LatencyRecorder* recorder) : recorder_(recorder) {}

  Status Init(ProcessorContext* context) override {
    JET_RETURN_IF_ERROR(Processor::Init(context));
    histogram_ = recorder_->NewHistogram();
    return Status::OK();
  }

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    const Nanos now = ctx()->clock->Now();
    while (!inbox->Empty()) {
      histogram_->Record(now - inbox->Peek()->timestamp);
      inbox->RemoveFront();
    }
  }

 private:
  LatencyRecorder* recorder_;
  Histogram* histogram_ = nullptr;
};

/// Sink that counts items (per shared atomic counter).
template <typename In>
class CountSinkP final : public Processor {
 public:
  explicit CountSinkP(std::shared_ptr<std::atomic<int64_t>> counter)
      : counter_(std::move(counter)) {}

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    int64_t n = 0;
    while (!inbox->Empty()) {
      ++n;
      inbox->RemoveFront();
    }
    // jet-verify: allow(single-writer) — statistics tally, no payload
    // published; readers tolerate staleness
    counter_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<int64_t>> counter_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_PROCESSORS_BASIC_H_
