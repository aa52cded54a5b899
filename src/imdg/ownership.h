#ifndef JETSIM_IMDG_OWNERSHIP_H_
#define JETSIM_IMDG_OWNERSHIP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "imdg/partition.h"

namespace jet::imdg {

/// Registry of single-writer partition ownership (ROADMAP item 3, after
/// Prasaad et al.: per-core state ownership beats shared locked state).
/// Each partition of a keyed-state domain is owned by at most one
/// {worker, tasklet} pair; the owner — and only the owner — may write the
/// partition's state without taking the domain's locks. The scheduler
/// migrates ownership together with the tasklet: `Transfer` re-registers a
/// claim under the adopting worker at the rebalancer's round boundary.
///
/// The table itself is a cold-path structure (claims change only at job
/// start/end and at tasklet migrations), so a plain mutex suffices; the
/// hot path never consults it — it holds an OwnedPartitionHandle instead.
class PartitionOwnershipTable {
 public:
  /// Sentinel tasklet id meaning "unowned".
  static constexpr int64_t kNoTasklet = -1;

  struct Owner {
    /// Worker thread index currently hosting the owning tasklet; -1 until
    /// the first adoption binds one.
    int32_t worker = -1;
    /// Opaque owner id (the processor instance's global index).
    int64_t tasklet = kNoTasklet;
  };

  explicit PartitionOwnershipTable(int32_t partition_count);

  PartitionOwnershipTable(const PartitionOwnershipTable&) = delete;
  PartitionOwnershipTable& operator=(const PartitionOwnershipTable&) = delete;

  /// Claims `partition` for `tasklet` (hosted on `worker`, -1 if not yet
  /// bound). Fails with kFailedPrecondition if a different tasklet owns it.
  /// Re-claiming by the same tasklet only updates the worker.
  Status Claim(PartitionId partition, int32_t worker, int64_t tasklet);

  /// Moves `tasklet`'s claim on `partition` to `new_worker` (the adoption
  /// half of the scheduler's migration handoff). Fails with
  /// kFailedPrecondition if `tasklet` does not own the partition.
  Status Transfer(PartitionId partition, int64_t tasklet, int32_t new_worker);

  /// Releases `tasklet`'s claim on `partition`. Fails if not the owner.
  Status Release(PartitionId partition, int64_t tasklet);

  /// True iff `tasklet` currently owns `partition`.
  bool IsOwnedBy(PartitionId partition, int64_t tasklet) const;

  /// Number of currently-claimed partitions (`grid.owned_partitions`).
  int64_t owned_count() const {
    return owned_count_.load(std::memory_order_acquire);
  }

  /// Cumulative successful Transfer calls (`scheduler.ownership_migrations`).
  int64_t transfers() const { return transfers_.load(std::memory_order_acquire); }

  int32_t partition_count() const {
    return static_cast<int32_t>(owners_size_);
  }

 private:
  mutable jet::Mutex mutex_;
  std::vector<Owner> owners_ JET_GUARDED_BY(mutex_);
  size_t owners_size_;  // fixed at construction; readable without the mutex
  std::atomic<int64_t> owned_count_{0};
  std::atomic<int64_t> transfers_{0};
};

/// Named ownership domains. Independent keyed-state spaces (one per DAG
/// vertex, plus the grid's own partition space) each get their own table:
/// the accumulate and combine stages of a two-stage aggregation both own
/// "their" partition p, but of different state, so a single flat table
/// would report false conflicts.
class OwnershipRegistry {
 public:
  OwnershipRegistry() = default;
  OwnershipRegistry(const OwnershipRegistry&) = delete;
  OwnershipRegistry& operator=(const OwnershipRegistry&) = delete;

  /// Returns the table for `domain`, creating it with `partition_count`
  /// partitions on first use. The pointer stays valid for the registry's
  /// lifetime. Returns nullptr when an existing domain's partition count
  /// conflicts with the request.
  PartitionOwnershipTable* TableFor(const std::string& domain,
                                    int32_t partition_count);

  /// Sum of owned partitions across all domains.
  int64_t owned_count() const;

  /// Sum of ownership transfers across all domains.
  int64_t transfers() const;

 private:
  mutable jet::Mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<PartitionOwnershipTable>> tables_
      JET_GUARDED_BY(mutex_);
};

}  // namespace jet::imdg

#endif  // JETSIM_IMDG_OWNERSHIP_H_
