#ifndef JETSIM_CORE_PROCESSORS_WINDOW_H_
#define JETSIM_CORE_PROCESSORS_WINDOW_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aggregate.h"
#include "core/processor.h"
#include "core/state_ownership.h"
#include "core/watermark.h"

namespace jet::core {

/// Definition of a time window. `slide == size` makes it tumbling.
struct WindowDef {
  Nanos size = kNanosPerSecond;
  Nanos slide = kNanosPerSecond;

  static WindowDef Tumbling(Nanos size) { return WindowDef{size, size}; }
  static WindowDef Sliding(Nanos size, Nanos slide) { return WindowDef{size, slide}; }

  /// End timestamp of the frame containing event time `ts` (frames are the
  /// slide-aligned buckets shared by overlapping windows).
  Nanos FrameEndFor(Nanos ts) const { return (ts / slide) * slide + slide; }
};

/// Partial aggregation result for one key in one frame, flowing from the
/// accumulate stage to the combine stage.
template <typename Acc>
struct KeyedFrame {
  uint64_t key = 0;
  Nanos frame_end = 0;
  Acc acc{};
};

/// Final windowed aggregation result.
template <typename Res>
struct WindowResult {
  uint64_t key = 0;
  Nanos window_start = 0;
  Nanos window_end = 0;
  Res value{};
};

/// Stage 1 of the two-stage windowed aggregation (§3.1: "local partial
/// results followed by global combining"). Each instance accumulates the
/// events it happens to receive into per-(key, frame) partial accumulators
/// and flushes a frame downstream once the watermark passes its end. The
/// downstream edge is partitioned by key, so stage 2 sees all partials of
/// a key.
template <typename In, typename Acc, typename Res>
class AccumulateByFrameP final : public Processor {
 public:
  AccumulateByFrameP(AggregateOperation<In, Acc, Res> op,
                     std::function<uint64_t(const In&)> key_fn, WindowDef window,
                     std::shared_ptr<std::atomic<int64_t>> late_counter = nullptr)
      : op_(std::move(op)),
        key_fn_(std::move(key_fn)),
        window_(window),
        late_counter_(std::move(late_counter)) {}

  Status Init(ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return claim_.ClaimVertexShare(*ctx);
  }

  void AdoptWorkerOwnership(int32_t worker_index) override {
    claim_.AdoptWorker(worker_index);
  }

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty()) {
      const Item* item = inbox->Peek();
      Nanos frame_end = window_.FrameEndFor(item->timestamp);
      if (frame_end <= flushed_up_to_) {
        // The item's frame was already flushed downstream: it is late
        // beyond the watermark. Drop it (counted) rather than resurrect a
        // zombie frame that would double-emit.
        ++late_events_dropped_;
        if (late_counter_ != nullptr) {
          // jet-verify: allow(single-writer) — late-event tally, no payload
          // published; readers tolerate staleness
          late_counter_->fetch_add(1, std::memory_order_relaxed);
        }
        inbox->RemoveFront();
        continue;
      }
      const In& in = item->payload.As<In>();
      uint64_t key = key_fn_(in);
      auto& frame = frames_[frame_end];
      auto [it, inserted] = frame.try_emplace(key, op_.create());
      op_.accumulate(&it->second, in);
      inbox->RemoveFront();
    }
  }

  /// Items dropped because their frame had already been flushed.
  int64_t late_events_dropped() const { return late_events_dropped_; }

  bool TryProcessWatermark(Nanos wm) override {
    if (wm > flushed_up_to_) flushed_up_to_ = wm;
    // Flush closed frames downstream; stop between frames once the outbox
    // is full.
    while (!frames_.empty() && frames_.begin()->first <= wm) {
      if (!ctx()->outbox->HasRoom()) return false;
      auto frame_it = frames_.begin();
      const Nanos frame_end = frame_it->first;
      for (auto& [key, acc] : frame_it->second) {
        ctx()->outbox->OfferToAll(Item::Data<KeyedFrame<Acc>>(
            KeyedFrame<Acc>{key, frame_end, std::move(acc)}, frame_end, HashU64(key)));
      }
      frames_.erase(frame_it);
    }
    return true;
  }

  bool SaveToSnapshot() override {
    for (const auto& [frame_end, keyed] : frames_) {
      for (const auto& [key, acc] : keyed) {
        StateEntry entry;
        entry.key_hash = HashU64(key);
        BytesWriter kw;
        kw.WriteVarU64(key);
        kw.WriteVarI64(frame_end);
        entry.key = kw.Take();
        BytesWriter vw;
        op_.serialize(acc, &vw);
        entry.value = vw.Take();
        ctx()->outbox->OfferToSnapshot(std::move(entry));
      }
    }
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint64_t key = 0;
    int64_t frame_end = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&key));
    JET_RETURN_IF_ERROR(kr.ReadVarI64(&frame_end));
    BytesReader vr(entry.value);
    Acc acc = op_.deserialize(&vr);
    auto& frame = frames_[frame_end];
    auto [it, inserted] = frame.try_emplace(key, std::move(acc));
    if (!inserted) op_.combine(&it->second, acc);
    return Status::OK();
  }

 private:
  AggregateOperation<In, Acc, Res> op_;
  std::function<uint64_t(const In&)> key_fn_;
  WindowDef window_;
  StateOwnershipClaim claim_;
  std::shared_ptr<std::atomic<int64_t>> late_counter_;
  std::map<Nanos, std::unordered_map<uint64_t, Acc>> frames_;
  Nanos flushed_up_to_ = kMinWatermark;
  int64_t late_events_dropped_ = 0;
};

/// Stage 2 of the two-stage windowed aggregation: combines per-frame
/// partials from all stage-1 instances and emits one WindowResult per key
/// per window once the watermark passes the window end.
///
/// When the aggregate supports `deduct`, the window slides in O(keys) per
/// slide by keeping one running accumulator per key (add the entering
/// frame, deduct the leaving one); otherwise each window recombines its
/// frames. Result items carry the window end as their timestamp, so a
/// LatencySinkP downstream measures exactly the paper's §7.1 latency.
template <typename In, typename Acc, typename Res>
class CombineFramesP final : public Processor {
 public:
  CombineFramesP(AggregateOperation<In, Acc, Res> op, WindowDef window)
      : op_(std::move(op)), window_(window) {}

  Status Init(ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return claim_.ClaimVertexShare(*ctx);
  }

  void AdoptWorkerOwnership(int32_t worker_index) override {
    claim_.AdoptWorker(worker_index);
  }

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty()) {
      const Item* item = inbox->Peek();
      const auto& kf = item->payload.As<KeyedFrame<Acc>>();
      auto& frame = frames_[kf.frame_end];
      auto [it, inserted] = frame.try_emplace(kf.key, op_.create());
      op_.combine(&it->second, kf.acc);
      inbox->RemoveFront();
    }
  }

  bool TryProcessWatermark(Nanos wm) override {
    // Stop between windows once the outbox is full. Once all state is gone
    // there is nothing left to emit (guards the final kMaxWatermark flush
    // against running forever).
    while (!frames_.empty() || !running_.empty()) {
      Nanos next = NextWindowEnd();
      if (next == kMinWatermark || next > wm) break;
      if (!ctx()->outbox->HasRoom()) return false;
      EmitWindow(next);
      last_window_end_ = next;
    }
    return true;
  }

  bool SaveToSnapshot() override {
    for (const auto& [frame_end, keyed] : frames_) {
      for (const auto& [key, acc] : keyed) {
        StateEntry entry;
        entry.key_hash = HashU64(key);
        BytesWriter kw;
        kw.WriteU8(0);  // 0 = frame entry
        kw.WriteVarU64(key);
        kw.WriteVarI64(frame_end);
        entry.key = kw.Take();
        BytesWriter vw;
        op_.serialize(acc, &vw);
        entry.value = vw.Take();
        ctx()->outbox->OfferToSnapshot(std::move(entry));
      }
    }
    // Per-instance meta entry: the emission position.
    StateEntry meta;
    meta.key_hash = static_cast<uint64_t>(ctx()->meta.global_index);
    BytesWriter kw;
    kw.WriteU8(1);  // 1 = meta entry
    kw.WriteVarU64(static_cast<uint64_t>(ctx()->meta.global_index));
    meta.key = kw.Take();
    BytesWriter vw;
    vw.WriteI64(last_window_end_);
    meta.value = vw.Take();
    ctx()->outbox->OfferToSnapshot(std::move(meta));
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint8_t tag = 0;
    JET_RETURN_IF_ERROR(kr.ReadU8(&tag));
    if (tag == 1) {
      BytesReader vr(entry.value);
      int64_t last = 0;
      JET_RETURN_IF_ERROR(vr.ReadI64(&last));
      // Several old instances' meta entries may land here after a rescale;
      // the max is the safe (no window skipped twice) choice.
      if (!restored_meta_ || last > last_window_end_) last_window_end_ = last;
      restored_meta_ = true;
      return Status::OK();
    }
    uint64_t key = 0;
    int64_t frame_end = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&key));
    JET_RETURN_IF_ERROR(kr.ReadVarI64(&frame_end));
    BytesReader vr(entry.value);
    Acc acc = op_.deserialize(&vr);
    auto& frame = frames_[frame_end];
    auto [it, inserted] = frame.try_emplace(key, std::move(acc));
    if (!inserted) op_.combine(&it->second, acc);
    return Status::OK();
  }

  bool FinishSnapshotRestore() override {
    // Rebuild the running per-key accumulators for frames that were already
    // folded into the window before the snapshot (ends <= last emission).
    if (op_.HasDeduct() && last_window_end_ != kMinWatermark) {
      for (const auto& [frame_end, keyed] : frames_) {
        if (frame_end > last_window_end_) continue;
        for (const auto& [key, acc] : keyed) AddToRunning(key, acc);
      }
    }
    return true;
  }

 private:
  struct Running {
    Acc acc;
    int32_t frame_count = 0;
  };

  /// The next window end to emit, or kMinWatermark if no state exists yet.
  /// Windows containing no data are skipped wholesale (they would emit
  /// nothing), so an idle key space never costs per-slide work.
  Nanos NextWindowEnd() const {
    if (last_window_end_ == kMinWatermark) {
      if (frames_.empty()) return kMinWatermark;
      return frames_.begin()->first;  // first window = earliest closed frame
    }
    Nanos next = last_window_end_ + window_.slide;
    if (running_.empty() && !frames_.empty() && frames_.begin()->first > next) {
      next = frames_.begin()->first;  // jump over the empty gap
    }
    return next;
  }

  void AddToRunning(uint64_t key, const Acc& acc) {
    auto [it, inserted] = running_.try_emplace(key, Running{op_.create(), 0});
    op_.combine(&it->second.acc, acc);
    ++it->second.frame_count;
  }

  void EmitWindow(Nanos window_end) {
    const Nanos window_start = window_end - window_.size;
    if (op_.HasDeduct()) {
      // Fold in the entering frame.
      auto entering = frames_.find(window_end);
      if (entering != frames_.end()) {
        for (const auto& [key, acc] : entering->second) AddToRunning(key, acc);
      }
      for (const auto& [key, run] : running_) {
        ctx()->outbox->OfferToAll(Item::Data<WindowResult<Res>>(
            WindowResult<Res>{key, window_start, window_end, op_.finish(run.acc)},
            window_end, HashU64(key)));
      }
      // Deduct and drop every frame that leaves before the next window.
      // (All frames with end <= window_end have been folded into the
      // running accumulators, so deducting here is always balanced.)
      const Nanos leaving = window_end - window_.size + window_.slide;
      while (!frames_.empty() && frames_.begin()->first <= leaving) {
        auto it = frames_.begin();
        for (const auto& [key, acc] : it->second) {
          auto run_it = running_.find(key);
          if (run_it == running_.end()) continue;
          op_.deduct(&run_it->second.acc, acc);
          if (--run_it->second.frame_count == 0) running_.erase(run_it);
        }
        frames_.erase(it);
      }
    } else {
      // Recombine all frames inside (window_start, window_end].
      std::unordered_map<uint64_t, Acc> combined;
      auto lo = frames_.upper_bound(window_start);
      auto hi = frames_.upper_bound(window_end);
      for (auto it = lo; it != hi; ++it) {
        for (const auto& [key, acc] : it->second) {
          auto [cit, inserted] = combined.try_emplace(key, op_.create());
          op_.combine(&cit->second, acc);
        }
      }
      for (const auto& [key, acc] : combined) {
        ctx()->outbox->OfferToAll(Item::Data<WindowResult<Res>>(
            WindowResult<Res>{key, window_start, window_end, op_.finish(acc)},
            window_end, HashU64(key)));
      }
      const Nanos leaving = window_end - window_.size + window_.slide;
      while (!frames_.empty() && frames_.begin()->first <= leaving) {
        frames_.erase(frames_.begin());
      }
    }
  }

  AggregateOperation<In, Acc, Res> op_;
  WindowDef window_;
  StateOwnershipClaim claim_;
  std::map<Nanos, std::unordered_map<uint64_t, Acc>> frames_;
  std::unordered_map<uint64_t, Running> running_;
  Nanos last_window_end_ = kMinWatermark;
  bool restored_meta_ = false;
};

/// Session windows: per-key windows that grow while events keep arriving
/// within `gap` of each other and close once the watermark passes the last
/// event plus the gap (Jet's session windows; the natural fit for the §6
/// stateful-AI/chat sessions). Single-stage: the input edge must be
/// partitioned by the session key.
template <typename In, typename Acc, typename Res>
class SessionWindowP final : public Processor {
 public:
  SessionWindowP(AggregateOperation<In, Acc, Res> op,
                 std::function<uint64_t(const In&)> key_fn, Nanos gap)
      : op_(std::move(op)), key_fn_(std::move(key_fn)), gap_(gap) {}

  Status Init(ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return claim_.ClaimVertexShare(*ctx);
  }

  void AdoptWorkerOwnership(int32_t worker_index) override {
    claim_.AdoptWorker(worker_index);
  }

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty()) {
      const Item* item = inbox->Peek();
      const In& in = item->payload.As<In>();
      AddToSession(key_fn_(in), item->timestamp, in);
      inbox->RemoveFront();
    }
  }

  bool TryProcessWatermark(Nanos wm) override {
    // A session is closed once no future event (ts > wm) can extend it.
    for (auto key_it = sessions_.begin(); key_it != sessions_.end();) {
      auto& sessions = key_it->second;
      for (auto it = sessions.begin(); it != sessions.end();) {
        if (it->end <= wm) {
          ctx()->outbox->OfferToAll(Item::Data<WindowResult<Res>>(
              WindowResult<Res>{key_it->first, it->start, it->end,
                                op_.finish(it->acc)},
              it->end, HashU64(key_it->first)));
          it = sessions.erase(it);
        } else {
          ++it;
        }
      }
      key_it = sessions.empty() ? sessions_.erase(key_it) : std::next(key_it);
    }
    return true;
  }

  bool SaveToSnapshot() override {
    for (const auto& [key, sessions] : sessions_) {
      int64_t index = 0;
      for (const auto& session : sessions) {
        StateEntry entry;
        entry.key_hash = HashU64(key);
        BytesWriter kw;
        kw.WriteVarU64(key);
        kw.WriteVarI64(index++);
        entry.key = kw.Take();
        BytesWriter vw;
        vw.WriteI64(session.start);
        vw.WriteI64(session.end);
        op_.serialize(session.acc, &vw);
        entry.value = vw.Take();
        ctx()->outbox->OfferToSnapshot(std::move(entry));
      }
    }
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint64_t key = 0;
    int64_t index = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&key));
    JET_RETURN_IF_ERROR(kr.ReadVarI64(&index));
    BytesReader vr(entry.value);
    Session session;
    JET_RETURN_IF_ERROR(vr.ReadI64(&session.start));
    JET_RETURN_IF_ERROR(vr.ReadI64(&session.end));
    session.acc = op_.deserialize(&vr);
    InsertSession(key, std::move(session));
    return Status::OK();
  }

  size_t open_session_count() const {
    size_t n = 0;
    for (const auto& [key, sessions] : sessions_) n += sessions.size();
    return n;
  }

 private:
  struct Session {
    Nanos start = 0;
    Nanos end = 0;  // last event ts + gap
    Acc acc{};
  };

  void AddToSession(uint64_t key, Nanos ts, const In& in) {
    auto& sessions = sessions_[key];
    Session incoming;
    incoming.start = ts;
    incoming.end = ts + gap_;
    incoming.acc = op_.create();
    op_.accumulate(&incoming.acc, in);
    // Merge every existing session that overlaps [ts, ts+gap).
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->start <= incoming.end && incoming.start <= it->end) {
        incoming.start = std::min(incoming.start, it->start);
        incoming.end = std::max(incoming.end, it->end);
        op_.combine(&incoming.acc, it->acc);
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
    sessions.push_back(std::move(incoming));
  }

  void InsertSession(uint64_t key, Session session) {
    auto& sessions = sessions_[key];
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->start <= session.end && session.start <= it->end) {
        session.start = std::min(session.start, it->start);
        session.end = std::max(session.end, it->end);
        op_.combine(&session.acc, it->acc);
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
    sessions.push_back(std::move(session));
  }

  AggregateOperation<In, Acc, Res> op_;
  std::function<uint64_t(const In&)> key_fn_;
  Nanos gap_;
  StateOwnershipClaim claim_;
  std::unordered_map<uint64_t, std::vector<Session>> sessions_;
};

/// Result of a rolling (non-windowed) keyed aggregation: the running value
/// for `key` as of the triggering event.
template <typename Res>
struct RollingResult {
  uint64_t key = 0;
  Res value{};
};

/// Rolling keyed aggregate: maintains one running accumulator per key and
/// emits the refreshed result on every input event (Jet's rollingAggregate
/// — the pattern behind the §6 view-maintenance and stateful-AI use cases).
/// The input edge must be partitioned by the grouping key so each key has
/// exactly one owner. State is snapshot-capable, so exactly-once jobs keep
/// their running values across failures.
template <typename In, typename Acc, typename Res>
class RollingAggregateP final : public Processor {
 public:
  RollingAggregateP(AggregateOperation<In, Acc, Res> op,
                    std::function<uint64_t(const In&)> key_fn)
      : op_(std::move(op)), key_fn_(std::move(key_fn)) {}

  Status Init(ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return claim_.ClaimVertexShare(*ctx);
  }

  void AdoptWorkerOwnership(int32_t worker_index) override {
    claim_.AdoptWorker(worker_index);
  }

  void Process(int ordinal, Inbox* inbox) override {
    (void)ordinal;
    Outbox* outbox = ctx()->outbox;
    while (!inbox->Empty() && outbox->HasRoom()) {
      const Item* item = inbox->Peek();
      const In& in = item->payload.As<In>();
      uint64_t key = key_fn_(in);
      auto [it, inserted] = state_.try_emplace(key, op_.create());
      op_.accumulate(&it->second, in);
      outbox->OfferToAll(Item::Data<RollingResult<Res>>(
          RollingResult<Res>{key, op_.finish(it->second)}, item->timestamp,
          HashU64(key)));
      inbox->RemoveFront();
    }
  }

  bool SaveToSnapshot() override {
    for (const auto& [key, acc] : state_) {
      StateEntry entry;
      entry.key_hash = HashU64(key);
      BytesWriter kw;
      kw.WriteVarU64(key);
      entry.key = kw.Take();
      BytesWriter vw;
      op_.serialize(acc, &vw);
      entry.value = vw.Take();
      ctx()->outbox->OfferToSnapshot(std::move(entry));
    }
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint64_t key = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&key));
    BytesReader vr(entry.value);
    Acc acc = op_.deserialize(&vr);
    auto [it, inserted] = state_.try_emplace(key, std::move(acc));
    if (!inserted) op_.combine(&it->second, acc);
    return Status::OK();
  }

  size_t key_count() const { return state_.size(); }

 private:
  AggregateOperation<In, Acc, Res> op_;
  std::function<uint64_t(const In&)> key_fn_;
  StateOwnershipClaim claim_;
  std::unordered_map<uint64_t, Acc> state_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_PROCESSORS_WINDOW_H_
