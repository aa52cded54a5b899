#ifndef JETSIM_IMDG_GRID_H_
#define JETSIM_IMDG_GRID_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/debug_check.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "imdg/ownership.h"
#include "imdg/partition.h"
#include "imdg/partition_table.h"

namespace jet::imdg {

class DataGrid;

/// Hash functor for byte-string keys.
struct BytesHash {
  size_t operator()(const Bytes& b) const { return HashBytes(b.data(), b.size()); }
};

/// Data of one partition of one IMap on one member.
using PartitionStore = std::unordered_map<Bytes, Bytes, BytesHash>;

/// Callback observing entry updates of one map (the "observable" facet of
/// IMDG's map, §4.2); invoked after the write is applied, outside the
/// partition lock.
using EntryListener = std::function<void(const Bytes& key, const Bytes& value)>;

/// Statistics counters exposed by the grid, mainly for tests and benches.
struct GridStats {
  int64_t puts = 0;
  int64_t gets = 0;
  int64_t removes = 0;
  int64_t replicated_bytes = 0;  // bytes written to backup replicas
  int64_t migrated_entries = 0;  // entries copied by rebalancing
  int64_t batched_moves = 0;     // whole-store migrations (moved, not copied)
};

/// Exclusive, lock-free access to one (map, partition) pair of the grid by
/// its registered single writer (ROADMAP item 3). The handle caches raw
/// PartitionStore pointers for the primary and backup replicas; every
/// operation is plain loads/stores on those stores — no `layout_rw_`
/// acquisition, no partition mutex — so a keyed-aggregation hot path pays
/// zero lock operations per event.
///
/// Safety protocol (epoch + in-op flag, Dekker-style):
///  - every operation publishes `in_op_ = true` (seq_cst), then validates
///    its cached layout epoch against the grid's (seq_cst load). On a
///    mismatch it clears the flag and re-resolves its pointers under the
///    grid's locks.
///  - every layout mutation (AddMember/RemoveMember/Destroy) bumps the
///    epoch (seq_cst) *while holding the exclusive layout lock*, then
///    spin-waits until every registered handle shows `in_op_ == false`.
/// In the seq_cst total order either the handle's epoch load precedes the
/// mutator's bump — then the mutator's quiesce scan observes `in_op_ ==
/// true` and waits out the operation — or it follows it, and the handle
/// retires to the locked slow path before touching any store. Either way
/// no owned operation ever overlaps a layout mutation.
///
/// Single-thread contract: only the owning tasklet's worker thread may
/// call operations (ThreadOwnershipGuard-enforced under
/// JETSIM_DEBUG_CHECKS). On a scheduler handoff call ReleaseThreadBinding()
/// from the old worker; the next operation re-binds to the adopting one.
///
/// While a handle is live, locked-path entry operations on its (map,
/// partition) pair are rejected with kFailedPrecondition and whole-grid
/// scans (Size/Usage/EntriesWhere/CheckReplicaConsistency/Clear/Reserve)
/// skip the pair — the owner is the only reader and writer.
class OwnedPartitionHandle {
 public:
  ~OwnedPartitionHandle();

  OwnedPartitionHandle(const OwnedPartitionHandle&) = delete;
  OwnedPartitionHandle& operator=(const OwnedPartitionHandle&) = delete;

  /// Stores `value` under `key` on the primary and every backup replica.
  Status Put(const Bytes& key, const Bytes& value);

  /// Returns the value under `key`, or nullopt.
  std::optional<Bytes> Get(const Bytes& key);

  /// Removes `key` from all replicas; true if it was present.
  bool Remove(const Bytes& key);

  /// In-place read-modify-write: applies `fn` to the stored value under
  /// `key` (inserting an empty value first if absent), then mirrors the
  /// result to the backups. Saves the Get copy of a fold-style update.
  Status Update(const Bytes& key, const std::function<void(Bytes*)>& fn);

  /// Entries in the primary replica of the pair.
  int64_t Size();

  /// Unbinds the handle from its current worker thread (scheduler handoff,
  /// round boundary). The next operation binds the calling thread.
  void ReleaseThreadBinding() { guard_.Release(); }

  PartitionId partition() const { return partition_; }
  const std::string& map_name() const { return map_; }

 private:
  friend class DataGrid;

  OwnedPartitionHandle(DataGrid* grid, std::string map, PartitionId partition,
                       int64_t tasklet);

  /// Publishes in_op_ and validates the epoch; on return the cached
  /// pointers are safe to use until ExitOp().
  void EnterOp();
  void ExitOp() { in_op_.store(false, std::memory_order_release); }

  /// Re-resolves the replica store pointers under the grid's locks.
  /// Audited cooperative boundary: this is the owned path's *cold* path,
  /// entered only when the layout epoch changed (a membership event). The
  /// critical section is a bounded pointer re-resolution; it blocks only
  /// while a layout mutation is mid-flight, which is the quiesce protocol's
  /// required semantic, not an unbounded wait on the steady-state hot path.
  void Refresh() JET_COOPERATIVE;

  /// Folds the handle-local statistic tallies into the grid's counters.
  void FoldStats();

  DataGrid* grid_;
  std::string map_;
  PartitionId partition_;
  int64_t tasklet_;
  /// Layout epoch the cached pointers were resolved at. 0 forces a
  /// Refresh on the first operation (the grid's epoch starts at 1).
  uint64_t epoch_ = 0;
  PartitionStore* primary_ = nullptr;
  std::vector<PartitionStore*> backups_;
  /// True while an owned operation is touching the cached stores; the
  /// grid's layout mutators quiesce on it.
  std::atomic<bool> in_op_{false};
  /// Handle-local stats, folded into the grid on destruction — the owned
  /// hot path must not share cache lines with other writers.
  int64_t local_puts_ = 0;
  int64_t local_gets_ = 0;
  int64_t local_removes_ = 0;
  int64_t local_replicated_ = 0;
  debug::ThreadOwnershipGuard guard_;
};

/// Capacity usage over primary replicas — the `imdg.*` capacity surfaces
/// rendered by DiagnosticsDump. Entry counts are exact at scan time;
/// `bytes_approx` sums key + value payload bytes only (hash-table overhead
/// excluded), hence "approx".
struct GridUsage {
  int64_t entries = 0;
  int64_t bytes_approx = 0;
  /// Entries in the fullest partition (hot-partition detector).
  int64_t max_partition_entries = 0;
  /// max / mean entries per partition: 1.0 is perfectly even placement,
  /// large values mean key skew is concentrating state (0 when empty).
  double partition_skew = 0;
};

/// In-memory data grid: a partitioned, replicated key-value store modeling
/// Hazelcast IMDG (§2.4, §4.2). All replicas live in this process — each
/// member has its own physical store — so replication, backup promotion on
/// failure, and migration on join exercise the same data movements as the
/// real grid without a network.
///
/// Writes go to the primary replica and are synchronously applied to all
/// backup replicas ("sync backups"). On member failure the partition table
/// promotes backups (Fig. 6) and the grid re-creates lost replicas from the
/// new primaries; committed data survives any `backup_count` simultaneous
/// member failures.
///
/// Thread-safety: operations on different partitions proceed in parallel
/// (striped per-partition locks); operations on one partition serialize.
/// Entry-level operations take the layout lock *shared* plus their
/// partition's lock; membership and map-layout mutations
/// (AddMember/RemoveMember/Destroy) take the layout lock *exclusive*,
/// which excludes every concurrent entry operation (they may hold
/// PartitionStore pointers into structures these mutations destroy).
/// Per-member map-structure lookups are additionally serialized by a
/// member-local layout mutex (two shared holders in different partitions
/// may both lazily create nodes). Under JETSIM_DEBUG_CHECKS, StoreFor
/// asserts that its caller actually holds the partition lock.
///
/// Lock order (audited; the JET_EXCLUDES annotations on the entry points
/// keep re-entrant acquisitions from regressing it): layout_rw_ (shared
/// for entry ops, exclusive for layout mutations) → one partition lock →
/// MemberStore::layout_mutex → owned_mutex_ (innermost; guards the
/// owned-handle registry and is never held while acquiring any other
/// lock). listener_mutex_ is a leaf lock never held across any other
/// acquisition, statistics are lock-free atomic tallies, and listeners are
/// invoked outside every lock.
///
/// Owned access (single-writer mode): a partition claimed in ownership()
/// can be accessed through an OwnedPartitionHandle with zero lock
/// operations per entry op; layout mutations quiesce all live handles
/// (epoch bump + in-op spin under the exclusive layout lock) before
/// touching any store, and locked-path operations reject / scans skip a
/// pair covered by a live handle.
class DataGrid {
 public:
  /// Creates a grid with the given replication factor. Members are added
  /// with `AddMember`.
  explicit DataGrid(int32_t backup_count = 1,
                    int32_t partition_count = kDefaultPartitionCount);

  DataGrid(const DataGrid&) = delete;
  DataGrid& operator=(const DataGrid&) = delete;

  /// Adds a member and rebalances partitions onto it (§4.3). Returns the
  /// number of migrated entries.
  Result<int64_t> AddMember(MemberId member) JET_EXCLUDES(layout_rw_);

  /// Simulates the hard failure of a member: its physical store is dropped,
  /// backups are promoted, and replacement backups are populated from the
  /// surviving primaries (§4.2, Fig. 6).
  Status RemoveMember(MemberId member) JET_EXCLUDES(layout_rw_);

  /// Stores `value` under `key` in map `map_name` (primary + backups).
  /// Listeners run after the write, outside every grid lock.
  Status Put(const std::string& map_name, const Bytes& key, const Bytes& value)
      JET_EXCLUDES(layout_rw_);

  /// Stores `value` under `key` in an explicitly chosen partition. Used by
  /// the snapshot store so a state entry lands in the partition of its
  /// *state key* (aligning snapshot locality with processing locality)
  /// rather than the hash of the composite storage key.
  Status PutInPartition(const std::string& map_name, PartitionId partition,
                        const Bytes& key, const Bytes& value)
      JET_EXCLUDES(layout_rw_);

  /// Returns the value under `key`, or std::nullopt if absent.
  Result<std::optional<Bytes>> Get(const std::string& map_name, const Bytes& key) const
      JET_EXCLUDES(layout_rw_);

  /// Removes `key`; returns true if it was present.
  Result<bool> Remove(const std::string& map_name, const Bytes& key)
      JET_EXCLUDES(layout_rw_);

  /// Registers a listener invoked on every Put to `map_name` (§4.2: the
  /// IMDG map is observable — the substrate of the §6 CDC/view-maintenance
  /// use cases). Returns a listener id for RemoveListener.
  int64_t AddEntryListener(const std::string& map_name, EntryListener listener);

  /// Unregisters a listener.
  void RemoveEntryListener(int64_t listener_id);

  /// Returns all entries of the map satisfying `predicate` (the "queryable"
  /// facet, scanning primary replicas).
  std::vector<std::pair<Bytes, Bytes>> EntriesWhere(
      const std::string& map_name,
      const std::function<bool(const Bytes& key, const Bytes& value)>& predicate) const;

  /// Total number of entries in the map (over primary replicas).
  int64_t Size(const std::string& map_name) const;

  /// Removes every entry of the map on all replicas.
  void Clear(const std::string& map_name) JET_EXCLUDES(layout_rw_);

  /// Drops the map entirely (all partitions, all replicas).
  void Destroy(const std::string& map_name) JET_EXCLUDES(layout_rw_);

  /// Copies all entries of `map_name` living in `partition` (read from the
  /// primary replica).
  std::vector<std::pair<Bytes, Bytes>> EntriesInPartition(const std::string& map_name,
                                                          PartitionId partition) const;

  /// Applies `fn` to every entry in `partition` of `map_name`.
  void ForEachInPartition(const std::string& map_name, PartitionId partition,
                          const std::function<void(const Bytes&, const Bytes&)>& fn) const;

  /// Partition that `key` belongs to.
  PartitionId PartitionOf(const Bytes& key) const {
    return PartitionForHash(HashBytes(key.data(), key.size()), table_.partition_count());
  }

  /// The partition table (primary/backup assignment).
  const PartitionTable& table() const { return table_; }

  /// Locked table reads for observers that race membership changes (e.g. a
  /// supervised cluster's control thread evicting members): table() itself
  /// is unsynchronized and only safe when no rebalance can be in flight.
  int64_t TableVersion() const;
  Status ValidateTable() const;

  /// Pre-sizes the per-partition hash stores of `map_name` on every
  /// replica for `expected_entries` across the whole map, so a bulk load
  /// (snapshot write, large-state job warm-up) pays no incremental rehash
  /// storms. An unordered_map rehash is O(partition entries) and lands on
  /// whichever Put crosses the load factor — at 1M+ entries those spikes
  /// dominate the put-latency tail (see bench_shufflebench's imdg_load
  /// scenario). Idempotent; reserving below the current size is a no-op.
  Status Reserve(const std::string& map_name, int64_t expected_entries)
      JET_EXCLUDES(layout_rw_);

  /// Scans primary replicas and reports capacity usage (all maps
  /// combined). Takes each partition lock once; intended for diagnostics
  /// cadence, not per-operation use.
  GridUsage Usage() const JET_EXCLUDES(layout_rw_);

  /// Counters; not synchronized with in-flight operations.
  GridStats stats() const;

  int32_t partition_count() const { return table_.partition_count(); }

  /// Verifies that every backup replica is byte-identical to its primary.
  /// Test helper; takes all partition locks one by one.
  Status CheckReplicaConsistency(const std::string& map_name) const;

  /// Single-writer ownership of this grid's partitions. Claim a partition
  /// here (scheduler/tasklet id), then open lock-free access with
  /// AcquireOwnedPartition. Exported as `grid.owned_partitions`.
  PartitionOwnershipTable& ownership() { return ownership_; }
  const PartitionOwnershipTable& ownership() const { return ownership_; }

  /// Opens owned (lock-free) access to one (map, partition) pair.
  /// `tasklet` must hold the partition's claim in ownership(); at most one
  /// live handle may exist per pair. The handle must be released (or the
  /// grid must outlive it) before the claim is released.
  Result<std::unique_ptr<OwnedPartitionHandle>> AcquireOwnedPartition(
      const std::string& map_name, PartitionId partition, int64_t tasklet)
      JET_EXCLUDES(layout_rw_);

  /// Number of live owned-partition handles (tests/diagnostics).
  int64_t owned_handles() const {
    return owned_active_.load(std::memory_order_acquire);
  }

 private:
  friend class OwnedPartitionHandle;
  // All maps of one member: map name -> partition id -> entries. Only
  // partitions with a replica on the member have a (possibly empty) store.
  struct MemberStore {
    std::unordered_map<std::string, std::unordered_map<PartitionId, PartitionStore>>
        maps;
    // Serializes lookups/insertions in the two-level `maps` structure:
    // writers to *different* partitions hold different partition locks yet
    // may both lazily create nodes of this unordered_map. Node pointers
    // stay valid after release; erasure happens only under the exclusive
    // layout lock (see layout_rw_). Innermost lock of the grid's order:
    // taken after layout_rw_ and a partition lock, never before either.
    mutable jet::Mutex layout_mutex;
  };

  // Requires the partition lock. Returns nullptr if the member is gone.
  PartitionStore* StoreFor(MemberId member, const std::string& map_name,
                           PartitionId partition);
  const PartitionStore* StoreForConst(MemberId member, const std::string& map_name,
                                      PartitionId partition) const;

  // Moves partition data according to the migration plan. Runs under the
  // exclusive layout lock (no entry operation or owned-handle operation can
  // be in flight), so stores are handed over in whole batches — moved when
  // the source relinquishes the replica, bulk-copied otherwise — instead of
  // entry-by-entry under the partition lock.
  int64_t ApplyMigrations(const std::vector<Migration>& migrations);

  // Requires the exclusive layout lock. Bumps layout_epoch_ and spin-waits
  // until no registered owned handle has an operation in flight; after it
  // returns the caller may invalidate any store the handles cache.
  void BumpLayoutEpochAndQuiesce();

  // True when a live owned handle covers (map_name, partition). Fast path:
  // a relaxed owned_active_ == 0 check, no lock.
  bool IsOwnedPair(const std::string& map_name, PartitionId partition) const;

  jet::Mutex& LockFor(PartitionId partition) const {
    return partition_locks_[static_cast<size_t>(partition)];
  }

  // Layout lock: shared by entry operations (alongside their partition
  // lock), exclusive for table_/members_/map-layout mutations. Always
  // acquired before any partition lock.
  mutable jet::SharedMutex layout_rw_;
  // table_ and members_ are written under exclusive layout_rw_ and read
  // under shared layout_rw_ + a partition lock; clang's analysis cannot
  // express "shared + striped partition lock", so only the map containers
  // are annotated and StoreFor's contract stays runtime-checked
  // (HoldTracker under JETSIM_DEBUG_CHECKS).
  PartitionTable table_;
  std::unordered_map<MemberId, std::unique_ptr<MemberStore>> members_;
  // Striped per-partition locks, always acquired after layout_rw_ (a
  // JET_ACQUIRED_AFTER annotation cannot name a lock inside a container,
  // so the order on this edge stays prose + JET_EXCLUDES on entry points).
  mutable std::vector<jet::Mutex> partition_locks_;
  // Debug-only (empty in release): tracks which thread holds each
  // partition lock so StoreFor can assert its locking contract.
  mutable std::vector<debug::HoldTracker> partition_hold_;
  // Statistics tallies. Relaxed atomic RMWs instead of a mutex: the old
  // global stats_mutex_ serialized every Put/Get/Remove across all
  // partitions — a measurable scalability ceiling the striped partition
  // locks were built to avoid. Counters are monotonic and only read by
  // stats(); no ordering is needed.
  mutable std::atomic<int64_t> stat_puts_{0};
  mutable std::atomic<int64_t> stat_gets_{0};
  mutable std::atomic<int64_t> stat_removes_{0};
  mutable std::atomic<int64_t> stat_replicated_bytes_{0};
  mutable std::atomic<int64_t> stat_migrated_entries_{0};
  mutable std::atomic<int64_t> stat_batched_moves_{0};

  mutable jet::Mutex listener_mutex_;
  int64_t next_listener_id_ JET_GUARDED_BY(listener_mutex_) = 1;
  // listener id -> (map name, callback)
  std::map<int64_t, std::pair<std::string, EntryListener>> listeners_
      JET_GUARDED_BY(listener_mutex_);
  // Fast-path guard for the per-Put listener scan: when no listener is
  // registered (the overwhelmingly common case — only CDC-style jobs
  // attach them), Put skips the listener_mutex_ acquisition and the
  // registry scan entirely.
  std::atomic<int64_t> listener_count_{0};

  // --- single-writer owned access (see OwnedPartitionHandle) ---
  // Who owns which partition; consulted by AcquireOwnedPartition and the
  // scheduler's ownership migration, never by the owned hot path.
  PartitionOwnershipTable ownership_;
  // Bumped (seq_cst) by every layout mutation while layout_rw_ is held
  // exclusively; owned handles validate their cached pointers against it.
  std::atomic<uint64_t> layout_epoch_{1};
  // Registry of live handles, for the quiesce scan and the owned-pair
  // checks. owned_mutex_ is the innermost lock of the grid's order: taken
  // after layout_rw_ / a partition lock / a member layout_mutex, and never
  // held while acquiring any other lock.
  mutable jet::Mutex owned_mutex_;
  std::vector<OwnedPartitionHandle*> owned_handles_registry_
      JET_GUARDED_BY(owned_mutex_);
  // Live-handle count; lets every locked-path owned-pair check and scan
  // skip the owned_mutex_ acquisition while no owned access exists.
  mutable std::atomic<int64_t> owned_active_{0};
};

}  // namespace jet::imdg

#endif  // JETSIM_IMDG_GRID_H_
