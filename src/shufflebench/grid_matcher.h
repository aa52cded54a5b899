#ifndef JETSIM_SHUFFLEBENCH_GRID_MATCHER_H_
#define JETSIM_SHUFFLEBENCH_GRID_MATCHER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/processor.h"
#include "core/processors_window.h"
#include "core/state_ownership.h"
#include "imdg/grid.h"
#include "shufflebench/generator.h"
#include "shufflebench/matcher.h"
#include "shufflebench/record.h"

namespace jet::shufflebench {

/// Matcher stage whose per-key state block lives in DataGrid partitions
/// under single-writer owned access (the grid-owned pipeline mode). Each
/// instance claims the grid partitions {p : p % total_parallelism ==
/// global_index} and folds every record's payload into the key's state via
/// OwnedPartitionHandle::Update — replicated grid state with zero lock
/// operations on the per-event path. Match counts per (key, frame) stay
/// processor-local and flow downstream as KeyedFrame<MatcherState> (empty
/// state block, the heavy bytes never leave the grid), so the standard
/// CombineFramesP/MatcherAggregate stage-2 works unchanged.
///
/// Routing contract: the inbound partitioned edge must route by
/// `record.key % grid->partition_count()` (MakeGridRoutedRecordGenFn), so
/// every record of grid partition p arrives at instance p %
/// total_parallelism — exactly the claim set above.
///
/// Lifecycle: the grid's ownership claims and owned handles are released
/// in the destructor. A re-submission over the same grid map must destroy
/// the previous execution's processors first (cluster restarts keep the
/// stopped attempt alive for metrics, so grid-owned jobs are for
/// single-attempt bench/test runs; per-vertex domains have no such
/// constraint because the registry itself is per-attempt).
class GridMatcherP final : public core::Processor {
 public:
  GridMatcherP(imdg::DataGrid* grid, std::string map_name,
               int32_t state_bytes_per_key, core::WindowDef window)
      : grid_(grid),
        map_name_(std::move(map_name)),
        state_bytes_per_key_(state_bytes_per_key),
        window_(window) {}

  Status Init(core::ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    partition_count_ = grid_->partition_count();
    const int32_t total = ctx->meta.total_parallelism;
    const auto g = static_cast<imdg::PartitionId>(ctx->meta.global_index);
    std::vector<imdg::PartitionId> share;
    for (imdg::PartitionId p = g; p < partition_count_; p += total) {
      share.push_back(p);
    }
    JET_RETURN_IF_ERROR(claim_.ClaimPartitions(&grid_->ownership(), share, g));
    for (imdg::PartitionId p : share) {
      auto handle = grid_->AcquireOwnedPartition(map_name_, p, g);
      if (!handle.ok()) return handle.status();
      handles_[p] = std::move(handle).value();
    }
    return Status::OK();
  }

  void ReleaseWorkerOwnership() override {
    for (auto& [p, handle] : handles_) handle->ReleaseThreadBinding();
  }

  void AdoptWorkerOwnership(int32_t worker_index) override {
    claim_.AdoptWorker(worker_index);
  }

  void Process(int ordinal, core::Inbox* inbox) override {
    (void)ordinal;
    while (!inbox->Empty()) {
      const core::Item* item = inbox->Peek();
      const Nanos frame_end = window_.FrameEndFor(item->timestamp);
      if (frame_end <= flushed_up_to_) {
        ++late_events_dropped_;
        inbox->RemoveFront();
        continue;
      }
      const Record& rec = item->payload.As<Record>();
      const auto p = static_cast<imdg::PartitionId>(
          rec.key % static_cast<uint64_t>(partition_count_));
      auto handle_it = handles_.find(p);
      if (handle_it != handles_.end()) {
        BytesWriter kw;
        kw.WriteVarU64(rec.key);
        // The owned-access fast path: no layout_rw_, no partition mutex —
        // the same wrap-around XOR fold as MatcherAggregate, applied to
        // the replicated grid value in place.
        (void)handle_it->second->Update(kw.Take(), [&](Bytes* state) {
          if (state->size() != static_cast<size_t>(state_bytes_per_key_)) {
            state->assign(static_cast<size_t>(state_bytes_per_key_), 0);
          }
          const size_t n = state->size();
          if (n != 0) {
            for (size_t i = 0; i < rec.payload.size(); ++i) {
              (*state)[i % n] ^= rec.payload[i];
            }
          }
        });
      }
      ++frames_[frame_end][rec.key];
      inbox->RemoveFront();
    }
  }

  bool TryProcessWatermark(Nanos wm) override {
    if (wm > flushed_up_to_) flushed_up_to_ = wm;
    // Flush closed frames downstream; stop between frames once the outbox
    // is full.
    while (!frames_.empty() && frames_.begin()->first <= wm) {
      if (!ctx()->outbox->HasRoom()) return false;
      auto frame_it = frames_.begin();
      const Nanos frame_end = frame_it->first;
      for (auto& [key, count] : frame_it->second) {
        MatcherState partial;
        partial.count = count;
        ctx()->outbox->OfferToAll(core::Item::Data<core::KeyedFrame<MatcherState>>(
            core::KeyedFrame<MatcherState>{key, frame_end, std::move(partial)},
            frame_end, HashU64(key)));
      }
      frames_.erase(frame_it);
    }
    return true;
  }

  bool SaveToSnapshot() override {
    // Only the local (key, frame) counts need the job snapshot; the state
    // blocks live in the grid, which replicates and survives on its own.
    for (const auto& [frame_end, keyed] : frames_) {
      for (const auto& [key, count] : keyed) {
        core::StateEntry entry;
        entry.key_hash = HashU64(key);
        BytesWriter kw;
        kw.WriteVarU64(key);
        kw.WriteVarI64(frame_end);
        entry.key = kw.Take();
        BytesWriter vw;
        vw.WriteVarI64(count);
        entry.value = vw.Take();
        ctx()->outbox->OfferToSnapshot(std::move(entry));
      }
    }
    return true;
  }

  Status RestoreFromSnapshot(const core::StateEntry& entry) override {
    BytesReader kr(entry.key);
    uint64_t key = 0;
    int64_t frame_end = 0;
    JET_RETURN_IF_ERROR(kr.ReadVarU64(&key));
    JET_RETURN_IF_ERROR(kr.ReadVarI64(&frame_end));
    BytesReader vr(entry.value);
    int64_t count = 0;
    JET_RETURN_IF_ERROR(vr.ReadVarI64(&count));
    frames_[frame_end][key] += count;
    return Status::OK();
  }

  /// Items dropped because their frame had already been flushed.
  int64_t late_events_dropped() const { return late_events_dropped_; }

  /// Grid partitions this instance owns (post-Init).
  size_t owned_partition_count() const { return handles_.size(); }

 private:
  imdg::DataGrid* grid_;
  std::string map_name_;
  int32_t state_bytes_per_key_;
  core::WindowDef window_;
  int32_t partition_count_ = 0;
  // Declared before the handles: handles must die first (they unregister
  // from the grid), then the claims release in the ownership table.
  core::StateOwnershipClaim claim_;
  std::unordered_map<imdg::PartitionId, std::unique_ptr<imdg::OwnedPartitionHandle>>
      handles_;
  std::map<Nanos, std::unordered_map<uint64_t, int64_t>> frames_;
  Nanos flushed_up_to_ = core::kMinWatermark;
  int64_t late_events_dropped_ = 0;
};

/// GenFn emitting the grid-owned routing hash: key_hash = key % partition
/// count, so the partitioned edge sends grid partition p's records to
/// instance p % total_parallelism — the partitions that instance owns.
inline core::GeneratorSourceP<Record>::GenFn MakeGridRoutedRecordGenFn(
    GeneratorConfig config, int32_t grid_partition_count) {
  auto gen = std::make_shared<const RecordGenerator>(config);
  const auto partitions = static_cast<uint64_t>(grid_partition_count);
  return [gen, partitions](int64_t seq) {
    Record rec = gen->MakeRecord(seq);
    const uint64_t key_hash = rec.key % partitions;
    return std::make_pair(std::move(rec), key_hash);
  };
}

}  // namespace jet::shufflebench

#endif  // JETSIM_SHUFFLEBENCH_GRID_MATCHER_H_
