#ifndef JETSIM_CORE_PROCESSORS_JOIN_H_
#define JETSIM_CORE_PROCESSORS_JOIN_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/processor.h"
#include "core/watermark.h"

namespace jet::core {

/// Hash join between a *batch* build side (input ordinal 0) and a
/// *streaming* probe side (input ordinal 1) — the hybrid batch/streaming
/// pattern of §2.1 Listing 2: "The batch side will pull all the inputs ...
/// when the pipeline initializes, and then the stream will simply probe the
/// hashtable for each incoming event."
///
/// Give the build edge priority 0 and the probe edge priority 1 so the
/// tasklet drains the build side completely before probing. The build edge
/// is typically broadcast (every instance holds the whole table) and the
/// probe edge unicast; alternatively both can be partitioned by key.
template <typename Build, typename Probe, typename Out>
class HashJoinP final : public Processor {
 public:
  /// `join` returns the outputs for one probe record given all matching
  /// build records (empty vector = no match, emits nothing).
  HashJoinP(std::function<uint64_t(const Build&)> build_key,
            std::function<uint64_t(const Probe&)> probe_key,
            std::function<void(const Probe&, const std::vector<Build>&,
                               std::vector<Out>*)>
                join)
      : build_key_(std::move(build_key)),
        probe_key_(std::move(probe_key)),
        join_(std::move(join)) {}

  void Process(int ordinal, Inbox* inbox) override {
    if (ordinal == 0) {
      while (!inbox->Empty()) {
        const Build& b = inbox->Peek()->payload.template As<Build>();
        table_[build_key_(b)].push_back(b);
        inbox->RemoveFront();
      }
      return;
    }
    Outbox* outbox = ctx()->outbox;
    while (!inbox->Empty() && outbox->HasRoom()) {
      const Item* item = inbox->Peek();
      const Probe& p = item->payload.template As<Probe>();
      auto it = table_.find(probe_key_(p));
      if (it != table_.end()) {
        out_buf_.clear();
        join_(p, it->second, &out_buf_);
        for (auto& out : out_buf_) {
          outbox->OfferToAll(Item::Data<Out>(std::move(out), item->timestamp, item->key_hash));
        }
      }
      inbox->RemoveFront();
    }
  }

  size_t build_table_size() const { return table_.size(); }

 private:

  std::function<uint64_t(const Build&)> build_key_;
  std::function<uint64_t(const Probe&)> probe_key_;
  std::function<void(const Probe&, const std::vector<Build>&, std::vector<Out>*)> join_;
  std::unordered_map<uint64_t, std::vector<Build>> table_;
  std::vector<Out> out_buf_;
};

/// Stream-to-stream equi-join over tumbling windows (NEXMark Q8 shape:
/// "join of the stream of new users with the stream of auctions ... in the
/// last period"). Left records arrive on ordinal 0, right records on
/// ordinal 1; both edges must be partitioned by the join key. Records are
/// buffered per (window frame, key); when the coalesced watermark passes a
/// frame end, matching pairs are emitted with the frame end as timestamp
/// and the frame is dropped.
template <typename L, typename R, typename Out>
class WindowJoinP final : public Processor {
 public:
  WindowJoinP(std::function<uint64_t(const L&)> left_key,
              std::function<uint64_t(const R&)> right_key,
              std::function<Out(const L&, const R&)> join, Nanos window_size)
      : left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        join_(std::move(join)),
        window_size_(window_size) {}

  void Process(int ordinal, Inbox* inbox) override {
    while (!inbox->Empty()) {
      const Item* item = inbox->Peek();
      Nanos frame_end = FrameEndFor(item->timestamp);
      auto& frame = frames_[frame_end];
      if (ordinal == 0) {
        const L& l = item->payload.template As<L>();
        frame[left_key_(l)].left.push_back(l);
      } else {
        const R& r = item->payload.template As<R>();
        frame[right_key_(r)].right.push_back(r);
      }
      inbox->RemoveFront();
    }
  }

  bool TryProcessWatermark(Nanos wm) override {
    // Stop between frames once the outbox is full.
    while (!frames_.empty() && frames_.begin()->first <= wm) {
      if (!ctx()->outbox->HasRoom()) return false;
      auto it = frames_.begin();
      const Nanos frame_end = it->first;
      for (auto& [key, bucket] : it->second) {
        for (const L& l : bucket.left) {
          for (const R& r : bucket.right) {
            ctx()->outbox->OfferToAll(
                Item::Data<Out>(join_(l, r), frame_end, HashU64(key)));
          }
        }
      }
      frames_.erase(it);
    }
    return true;
  }

  bool SaveToSnapshot() override {
    // Buffered raw records are not snapshotted in this reproduction; jobs
    // combining WindowJoinP with a processing guarantee would lose at most
    // one open window on recovery. (Documented substitution: Jet serializes
    // operator state generically via its serializer registry.)
    return true;
  }

  Status RestoreFromSnapshot(const StateEntry& entry) override {
    (void)entry;
    return Status::OK();
  }

 private:
  struct Bucket {
    std::vector<L> left;
    std::vector<R> right;
  };

  Nanos FrameEndFor(Nanos ts) const { return (ts / window_size_) * window_size_ + window_size_; }

  std::function<uint64_t(const L&)> left_key_;
  std::function<uint64_t(const R&)> right_key_;
  std::function<Out(const L&, const R&)> join_;
  Nanos window_size_;
  std::map<Nanos, std::unordered_map<uint64_t, Bucket>> frames_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_PROCESSORS_JOIN_H_
