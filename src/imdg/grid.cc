#include "imdg/grid.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

namespace jet::imdg {

DataGrid::DataGrid(int32_t backup_count, int32_t partition_count)
    : table_(partition_count, backup_count),
      partition_locks_(static_cast<size_t>(partition_count)),
      partition_hold_(static_cast<size_t>(partition_count)),
      ownership_(partition_count) {}

Result<int64_t> DataGrid::AddMember(MemberId member) {
  // Exclusive layout lock: entry operations read table_ and members_ under
  // the shared lock, so every mutation below is invisible to them until
  // this function returns. Owned handles bypass the shared lock, so they
  // are quiesced explicitly before any store is touched.
  jet::WriterLock layout(layout_rw_);
  BumpLayoutEpochAndQuiesce();
  if (members_.count(member) != 0) {
    return Status(StatusCode::kAlreadyExists, "member already in grid");
  }
  members_[member] = std::make_unique<MemberStore>();
  std::vector<Migration> migrations;
  if (table_.members().empty()) {
    JET_RETURN_IF_ERROR(table_.Assign({member}));
  } else if (table_.members().size() == 1) {
    // Second member: re-run assignment so it picks up backup replicas too,
    // then copy everything it now owns.
    auto members = table_.members();
    members.push_back(member);
    JET_RETURN_IF_ERROR(table_.Assign(members));
    // Synthesize migrations: everything assigned to the new member copies
    // from the old single member.
    MemberId old = members[0];
    for (PartitionId p : table_.ReplicasOf(member)) {
      int32_t idx = 0;
      while (table_.ReplicaFor(p, idx) != member) ++idx;
      migrations.push_back(Migration{p, idx, old, member});
    }
  } else {
    migrations = table_.AddMember(member);
  }
  int64_t migrated = ApplyMigrations(migrations);
  // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
  stat_migrated_entries_.fetch_add(migrated, std::memory_order_relaxed);
  return migrated;
}

Status DataGrid::RemoveMember(MemberId member) {
  // Hard failure: the member's data is gone. Exclusive layout lock: entry
  // operations may hold PartitionStore pointers into this member, and so
  // do owned handles — quiesce them before the erase below.
  jet::WriterLock layout(layout_rw_);
  BumpLayoutEpochAndQuiesce();
  auto it = members_.find(member);
  if (it == members_.end()) return NotFoundError("member not in grid");
  members_.erase(it);
  auto migrations = table_.RemoveMember(member);
  int64_t migrated = ApplyMigrations(migrations);
  // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
  stat_migrated_entries_.fetch_add(migrated, std::memory_order_relaxed);
  return Status::OK();
}

int64_t DataGrid::TableVersion() const {
  jet::ReaderLock layout(layout_rw_);
  return table_.version();
}

Status DataGrid::ValidateTable() const {
  jet::ReaderLock layout(layout_rw_);
  return table_.Validate();
}

void DataGrid::BumpLayoutEpochAndQuiesce() {
  // Publish the new epoch first (seq_cst): any owned operation that starts
  // after this point validates against it, misses, and retires to the
  // locked slow path — where it blocks on layout_rw_, which the caller
  // holds exclusively.
  layout_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (owned_active_.load(std::memory_order_acquire) == 0) return;
  jet::MutexLock lock(owned_mutex_);
  for (OwnedPartitionHandle* handle : owned_handles_registry_) {
    // An operation that published in_op_ before the epoch bump is still
    // running on pre-mutation pointers; wait it out. Owned operations
    // never block or take locks, so the wait is bounded by one entry op.
    while (handle->in_op_.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
  }
}

bool DataGrid::IsOwnedPair(const std::string& map_name, PartitionId partition) const {
  if (owned_active_.load(std::memory_order_acquire) == 0) return false;
  jet::MutexLock lock(owned_mutex_);
  for (const OwnedPartitionHandle* handle : owned_handles_registry_) {
    if (handle->partition_ == partition && handle->map_ == map_name) return true;
  }
  return false;
}

int64_t DataGrid::ApplyMigrations(const std::vector<Migration>& migrations) {
  // Callers hold layout_rw_ exclusively and have quiesced owned handles:
  // no entry operation, scan, or owned access can observe intermediate
  // state, so the stores are handed over in whole batches without per-
  // partition locks — a 1M-entry partition moves as one node splice
  // instead of 1M locked inserts.
  int64_t migrated = 0;
  // A store may only be *moved* out of its source when no later migration
  // still copies from the same (source, partition).
  std::map<std::pair<MemberId, PartitionId>, int32_t> pending_reads;
  for (const Migration& m : migrations) ++pending_reads[{m.source, m.partition}];
  for (const Migration& m : migrations) {
    auto src_it = members_.find(m.source);
    auto dst_it = members_.find(m.destination);
    --pending_reads[{m.source, m.partition}];
    if (src_it == members_.end() || dst_it == members_.end()) continue;
    bool source_keeps_replica = false;
    for (int32_t i = 0; i <= table_.backup_count(); ++i) {
      if (table_.ReplicaFor(m.partition, i) == m.source) {
        source_keeps_replica = true;
        break;
      }
    }
    if (m.source == m.destination) {
      // Maps a member onto itself: the data is already in place; only the
      // accounting applies.
      for (auto& [map_name, partitions] : src_it->second->maps) {
        auto part_it = partitions.find(m.partition);
        if (part_it != partitions.end()) {
          migrated += static_cast<int64_t>(part_it->second.size());
        }
      }
      continue;
    }
    const bool move_store =
        !source_keeps_replica && pending_reads[{m.source, m.partition}] == 0;
    for (auto& [map_name, partitions] : src_it->second->maps) {
      auto part_it = partitions.find(m.partition);
      if (part_it == partitions.end()) continue;
      migrated += static_cast<int64_t>(part_it->second.size());
      if (move_store) {
        dst_it->second->maps[map_name][m.partition] = std::move(part_it->second);
        partitions.erase(part_it);
        // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
        stat_batched_moves_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dst_it->second->maps[map_name][m.partition] = part_it->second;
      }
    }
  }
  return migrated;
}

PartitionStore* DataGrid::StoreFor(MemberId member, const std::string& map_name,
                                   PartitionId partition) {
  JET_DCHECK(partition >= 0 && partition < table_.partition_count());
  JET_DCHECK(partition_hold_[static_cast<size_t>(partition)].HeldByCurrentThread() &&
             "StoreFor requires the partition lock");
  auto it = members_.find(member);
  if (it == members_.end()) return nullptr;
  // The returned pointer stays valid after the layout mutex is released:
  // unordered_map nodes are stable, and erasure requires all partition
  // locks while the caller keeps holding this partition's.
  jet::MutexLock layout(it->second->layout_mutex);
  return &it->second->maps[map_name][partition];
}

const PartitionStore* DataGrid::StoreForConst(MemberId member,
                                              const std::string& map_name,
                                              PartitionId partition) const {
  JET_DCHECK(partition >= 0 && partition < table_.partition_count());
  JET_DCHECK(partition_hold_[static_cast<size_t>(partition)].HeldByCurrentThread() &&
             "StoreForConst requires the partition lock");
  auto it = members_.find(member);
  if (it == members_.end()) return nullptr;
  jet::MutexLock layout(it->second->layout_mutex);
  auto map_it = it->second->maps.find(map_name);
  if (map_it == it->second->maps.end()) return nullptr;
  auto part_it = map_it->second.find(partition);
  if (part_it == map_it->second.end()) return nullptr;
  return &part_it->second;
}

Status DataGrid::Put(const std::string& map_name, const Bytes& key, const Bytes& value) {
  return PutInPartition(map_name, PartitionOf(key), key, value);
}

int64_t DataGrid::AddEntryListener(const std::string& map_name, EntryListener listener) {
  jet::MutexLock lock(listener_mutex_);
  int64_t id = next_listener_id_++;
  listeners_[id] = {map_name, std::move(listener)};
  // Release-publish after the map insert so a Put seeing count > 0 also
  // sees the listener under listener_mutex_.
  listener_count_.store(static_cast<int64_t>(listeners_.size()),
                        std::memory_order_release);
  return id;
}

void DataGrid::RemoveEntryListener(int64_t listener_id) {
  jet::MutexLock lock(listener_mutex_);
  listeners_.erase(listener_id);
  listener_count_.store(static_cast<int64_t>(listeners_.size()),
                        std::memory_order_release);
}

std::vector<std::pair<Bytes, Bytes>> DataGrid::EntriesWhere(
    const std::string& map_name,
    const std::function<bool(const Bytes&, const Bytes&)>& predicate) const {
  std::vector<std::pair<Bytes, Bytes>> out;
  for (PartitionId p = 0; p < table_.partition_count(); ++p) {
    ForEachInPartition(map_name, p, [&](const Bytes& k, const Bytes& v) {
      if (predicate(k, v)) out.emplace_back(k, v);
    });
  }
  return out;
}

Status DataGrid::PutInPartition(const std::string& map_name, PartitionId partition,
                                const Bytes& key, const Bytes& value) {
  if (partition < 0 || partition >= table_.partition_count()) {
    return InvalidArgumentError("partition out of range");
  }
  if (IsOwnedPair(map_name, partition)) {
    return FailedPreconditionError("partition is open for owned access");
  }
  {
    jet::ReaderLock layout(layout_rw_);
    jet::MutexLock lock(LockFor(partition));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(partition)]);
    MemberId primary = table_.PrimaryFor(partition);
    if (primary == kInvalidMember) return UnavailableError("no members in grid");
    PartitionStore* store = StoreFor(primary, map_name, partition);
    if (store == nullptr) return InternalError("primary member store missing");
    (*store)[key] = value;
    // Synchronous backups (§4.2): apply to every backup replica before
    // acknowledging.
    int64_t replicated = 0;
    for (int32_t i = 1; i <= table_.backup_count(); ++i) {
      MemberId backup = table_.ReplicaFor(partition, i);
      if (backup == kInvalidMember) continue;
      PartitionStore* backup_store = StoreFor(backup, map_name, partition);
      if (backup_store != nullptr) {
        (*backup_store)[key] = value;
        replicated += static_cast<int64_t>(key.size() + value.size());
      }
    }
    // jet-verify: allow(single-writer) — monotonic stats counters (RMW)
    stat_puts_.fetch_add(1, std::memory_order_relaxed);
    stat_replicated_bytes_.fetch_add(replicated, std::memory_order_relaxed);
  }
  // Notify listeners outside every grid lock (per the EntryListener
  // contract) so a listener may re-enter the grid. The acquire load skips
  // the lock + registry scan entirely when no listener exists — the
  // common case, which at bulk-load rates would otherwise put a global
  // mutex on every Put.
  if (listener_count_.load(std::memory_order_acquire) > 0) {
    std::vector<EntryListener> to_notify;
    {
      jet::MutexLock l(listener_mutex_);
      for (const auto& [id, entry] : listeners_) {
        if (entry.first == map_name) to_notify.push_back(entry.second);
      }
    }
    for (const auto& fn : to_notify) fn(key, value);
  }
  return Status::OK();
}

Result<std::optional<Bytes>> DataGrid::Get(const std::string& map_name,
                                           const Bytes& key) const {
  PartitionId partition = PartitionOf(key);
  if (IsOwnedPair(map_name, partition)) {
    return FailedPreconditionError("partition is open for owned access");
  }
  jet::ReaderLock layout(layout_rw_);
  jet::MutexLock lock(LockFor(partition));
  debug::ScopedHold hold(partition_hold_[static_cast<size_t>(partition)]);
  MemberId primary = table_.PrimaryFor(partition);
  if (primary == kInvalidMember) return UnavailableError("no members in grid");
  const PartitionStore* store = StoreForConst(primary, map_name, partition);
  // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
  stat_gets_.fetch_add(1, std::memory_order_relaxed);
  if (store == nullptr) return std::optional<Bytes>();
  auto it = store->find(key);
  if (it == store->end()) return std::optional<Bytes>();
  return std::optional<Bytes>(it->second);
}

Result<bool> DataGrid::Remove(const std::string& map_name, const Bytes& key) {
  PartitionId partition = PartitionOf(key);
  if (IsOwnedPair(map_name, partition)) {
    return FailedPreconditionError("partition is open for owned access");
  }
  jet::ReaderLock layout(layout_rw_);
  jet::MutexLock lock(LockFor(partition));
  debug::ScopedHold hold(partition_hold_[static_cast<size_t>(partition)]);
  MemberId primary = table_.PrimaryFor(partition);
  if (primary == kInvalidMember) return UnavailableError("no members in grid");
  PartitionStore* store = StoreFor(primary, map_name, partition);
  bool removed = store != nullptr && store->erase(key) > 0;
  for (int32_t i = 1; i <= table_.backup_count(); ++i) {
    MemberId backup = table_.ReplicaFor(partition, i);
    if (backup == kInvalidMember) continue;
    PartitionStore* backup_store = StoreFor(backup, map_name, partition);
    if (backup_store != nullptr) backup_store->erase(key);
  }
  // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
  stat_removes_.fetch_add(1, std::memory_order_relaxed);
  return removed;
}

int64_t DataGrid::Size(const std::string& map_name) const {
  int64_t total = 0;
  jet::ReaderLock layout(layout_rw_);
  for (PartitionId p = 0; p < table_.partition_count(); ++p) {
    if (IsOwnedPair(map_name, p)) continue;  // owner is sole reader/writer
    jet::MutexLock lock(LockFor(p));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(p)]);
    MemberId primary = table_.PrimaryFor(p);
    if (primary == kInvalidMember) continue;
    const PartitionStore* store = StoreForConst(primary, map_name, p);
    if (store != nullptr) total += static_cast<int64_t>(store->size());
  }
  return total;
}

void DataGrid::Clear(const std::string& map_name) {
  jet::ReaderLock layout(layout_rw_);
  for (PartitionId p = 0; p < table_.partition_count(); ++p) {
    if (IsOwnedPair(map_name, p)) continue;  // owner is sole reader/writer
    jet::MutexLock lock(LockFor(p));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(p)]);
    for (auto& [id, member] : members_) {
      jet::MutexLock layout(member->layout_mutex);
      auto map_it = member->maps.find(map_name);
      if (map_it == member->maps.end()) continue;
      auto part_it = map_it->second.find(p);
      if (part_it != map_it->second.end()) part_it->second.clear();
    }
  }
}

void DataGrid::Destroy(const std::string& map_name) {
  // Erasing whole maps invalidates PartitionStore pointers held by entry
  // operations, so exclude them all — and quiesce owned handles, which
  // cache the same pointers without holding the shared lock.
  jet::WriterLock layout(layout_rw_);
  BumpLayoutEpochAndQuiesce();
  for (auto& [id, member] : members_) member->maps.erase(map_name);
}

std::vector<std::pair<Bytes, Bytes>> DataGrid::EntriesInPartition(
    const std::string& map_name, PartitionId partition) const {
  std::vector<std::pair<Bytes, Bytes>> out;
  ForEachInPartition(map_name, partition,
                     [&out](const Bytes& k, const Bytes& v) { out.emplace_back(k, v); });
  return out;
}

void DataGrid::ForEachInPartition(
    const std::string& map_name, PartitionId partition,
    const std::function<void(const Bytes&, const Bytes&)>& fn) const {
  if (IsOwnedPair(map_name, partition)) return;  // owner is sole reader/writer
  jet::ReaderLock layout(layout_rw_);
  jet::MutexLock lock(LockFor(partition));
  debug::ScopedHold hold(partition_hold_[static_cast<size_t>(partition)]);
  MemberId primary = table_.PrimaryFor(partition);
  if (primary == kInvalidMember) return;
  const PartitionStore* store = StoreForConst(primary, map_name, partition);
  if (store == nullptr) return;
  for (const auto& [k, v] : *store) fn(k, v);
}

GridStats DataGrid::stats() const {
  GridStats s;
  s.puts = stat_puts_.load(std::memory_order_relaxed);
  s.gets = stat_gets_.load(std::memory_order_relaxed);
  s.removes = stat_removes_.load(std::memory_order_relaxed);
  s.replicated_bytes = stat_replicated_bytes_.load(std::memory_order_relaxed);
  s.migrated_entries = stat_migrated_entries_.load(std::memory_order_relaxed);
  s.batched_moves = stat_batched_moves_.load(std::memory_order_relaxed);
  return s;
}

Status DataGrid::Reserve(const std::string& map_name, int64_t expected_entries) {
  if (expected_entries < 0) return InvalidArgumentError("negative reservation");
  jet::ReaderLock layout(layout_rw_);
  const int32_t partitions = table_.partition_count();
  if (partitions <= 0 || table_.members().empty()) {
    return UnavailableError("no members in grid");
  }
  // Even key placement puts n/p entries in each partition; reserve ~25%
  // above that so moderate skew still avoids the final rehash.
  const auto per_partition = static_cast<size_t>(
      (expected_entries + partitions - 1) / partitions + expected_entries / (partitions * 4));
  for (PartitionId p = 0; p < partitions; ++p) {
    if (IsOwnedPair(map_name, p)) continue;  // owner is sole reader/writer
    jet::MutexLock lock(LockFor(p));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(p)]);
    for (int32_t i = 0; i <= table_.backup_count(); ++i) {
      MemberId replica = table_.ReplicaFor(p, i);
      if (replica == kInvalidMember) continue;
      PartitionStore* store = StoreFor(replica, map_name, p);
      if (store != nullptr) store->reserve(per_partition);
    }
  }
  return Status::OK();
}

GridUsage DataGrid::Usage() const {
  GridUsage usage;
  jet::ReaderLock layout(layout_rw_);
  const int32_t partitions = table_.partition_count();
  for (PartitionId p = 0; p < partitions; ++p) {
    jet::MutexLock lock(LockFor(p));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(p)]);
    MemberId primary = table_.PrimaryFor(p);
    if (primary == kInvalidMember) continue;
    auto member_it = members_.find(primary);
    if (member_it == members_.end()) continue;
    int64_t partition_entries = 0;
    jet::MutexLock member_layout(member_it->second->layout_mutex);
    for (const auto& [map_name, map_partitions] : member_it->second->maps) {
      auto part_it = map_partitions.find(p);
      if (part_it == map_partitions.end()) continue;
      if (IsOwnedPair(map_name, p)) continue;  // owner is sole reader/writer
      partition_entries += static_cast<int64_t>(part_it->second.size());
      for (const auto& [k, v] : part_it->second) {
        usage.bytes_approx += static_cast<int64_t>(k.size() + v.size());
      }
    }
    usage.entries += partition_entries;
    usage.max_partition_entries = std::max(usage.max_partition_entries, partition_entries);
  }
  if (usage.entries > 0 && partitions > 0) {
    const double mean =
        static_cast<double>(usage.entries) / static_cast<double>(partitions);
    usage.partition_skew = static_cast<double>(usage.max_partition_entries) / mean;
  }
  return usage;
}

Result<std::unique_ptr<OwnedPartitionHandle>> DataGrid::AcquireOwnedPartition(
    const std::string& map_name, PartitionId partition, int64_t tasklet) {
  if (partition < 0 || partition >= table_.partition_count()) {
    return InvalidArgumentError("partition out of range");
  }
  if (!ownership_.IsOwnedBy(partition, tasklet)) {
    return FailedPreconditionError("partition " + std::to_string(partition) +
                                   " not claimed by tasklet " +
                                   std::to_string(tasklet));
  }
  auto handle = std::unique_ptr<OwnedPartitionHandle>(
      new OwnedPartitionHandle(this, map_name, partition, tasklet));
  // Resolve the replica pointers eagerly so the first owned operation pays
  // no refresh. A layout mutation sneaking in between this and the
  // registration below only bumps the epoch — the first operation then
  // detects the mismatch and re-resolves.
  handle->Refresh();
  if (handle->primary_ == nullptr) {
    handle->grid_ = nullptr;  // not registered; skip the destructor's unlink
    return UnavailableError("no members in grid");
  }
  {
    jet::MutexLock lock(owned_mutex_);
    for (const OwnedPartitionHandle* existing : owned_handles_registry_) {
      if (existing->partition_ == partition && existing->map_ == map_name) {
        handle->grid_ = nullptr;
        return Status(StatusCode::kAlreadyExists,
                      "owned handle already open for this (map, partition)");
      }
    }
    owned_handles_registry_.push_back(handle.get());
  }
  owned_active_.fetch_add(1, std::memory_order_acq_rel);
  return handle;
}

OwnedPartitionHandle::OwnedPartitionHandle(DataGrid* grid, std::string map,
                                           PartitionId partition, int64_t tasklet)
    : grid_(grid), map_(std::move(map)), partition_(partition), tasklet_(tasklet) {}

OwnedPartitionHandle::~OwnedPartitionHandle() {
  if (grid_ == nullptr) return;  // acquisition failed; never registered
  FoldStats();
  {
    jet::MutexLock lock(grid_->owned_mutex_);
    auto& registry = grid_->owned_handles_registry_;
    registry.erase(std::remove(registry.begin(), registry.end(), this),
                   registry.end());
  }
  grid_->owned_active_.fetch_sub(1, std::memory_order_acq_rel);
}

void OwnedPartitionHandle::FoldStats() {
  // jet-verify: allow(single-writer) — monotonic stats counters (RMW),
  // folded once per handle lifetime
  grid_->stat_puts_.fetch_add(local_puts_, std::memory_order_relaxed);
  grid_->stat_gets_.fetch_add(local_gets_, std::memory_order_relaxed);
  grid_->stat_removes_.fetch_add(local_removes_, std::memory_order_relaxed);
  grid_->stat_replicated_bytes_.fetch_add(local_replicated_,
                                          std::memory_order_relaxed);
  local_puts_ = local_gets_ = local_removes_ = local_replicated_ = 0;
}

void OwnedPartitionHandle::EnterOp() {
  JET_DCHECK_SINGLE_THREAD(guard_, "OwnedPartitionHandle operation");
  for (;;) {
    // Dekker pairing with BumpLayoutEpochAndQuiesce: the in-op publish and
    // the epoch validation must form a seq_cst store→load so that either
    // the mutator sees the flag or this op sees the new epoch.
    in_op_.store(true, std::memory_order_seq_cst);
    if (epoch_ == grid_->layout_epoch_.load(std::memory_order_seq_cst)) return;
    in_op_.store(false, std::memory_order_release);
    Refresh();
  }
}

void OwnedPartitionHandle::Refresh() JET_COOPERATIVE {
  // Slow path (layout changed): re-resolve under the grid's locks like any
  // locked entry operation would. Blocks while a layout mutation is in
  // progress, which is exactly the required behavior. Audited cooperative
  // boundary (see the declaration): bounded pointer re-resolution entered
  // only on a membership event, never on the steady-state hot path.
  jet::ReaderLock layout(grid_->layout_rw_);
  jet::MutexLock lock(grid_->LockFor(partition_));
  debug::ScopedHold hold(grid_->partition_hold_[static_cast<size_t>(partition_)]);
  // No mutator can run while we hold the shared lock, so the epoch read
  // here is consistent with the pointers resolved below.
  epoch_ = grid_->layout_epoch_.load(std::memory_order_seq_cst);
  primary_ = nullptr;
  backups_.clear();
  MemberId primary = grid_->table_.PrimaryFor(partition_);
  if (primary == kInvalidMember) return;
  primary_ = grid_->StoreFor(primary, map_, partition_);
  for (int32_t i = 1; i <= grid_->table_.backup_count(); ++i) {
    MemberId backup = grid_->table_.ReplicaFor(partition_, i);
    if (backup == kInvalidMember) continue;
    PartitionStore* store = grid_->StoreFor(backup, map_, partition_);
    if (store != nullptr) backups_.push_back(store);
  }
}

Status OwnedPartitionHandle::Put(const Bytes& key, const Bytes& value) {
  EnterOp();
  if (primary_ == nullptr) {
    ExitOp();
    return UnavailableError("no primary replica");
  }
  (*primary_)[key] = value;
  for (PartitionStore* backup : backups_) {
    (*backup)[key] = value;
    local_replicated_ += static_cast<int64_t>(key.size() + value.size());
  }
  ++local_puts_;
  ExitOp();
  return Status::OK();
}

Status OwnedPartitionHandle::Update(const Bytes& key,
                                    const std::function<void(Bytes*)>& fn) {
  EnterOp();
  if (primary_ == nullptr) {
    ExitOp();
    return UnavailableError("no primary replica");
  }
  Bytes& value = (*primary_)[key];
  fn(&value);
  for (PartitionStore* backup : backups_) {
    (*backup)[key] = value;
    local_replicated_ += static_cast<int64_t>(key.size() + value.size());
  }
  ++local_puts_;
  ExitOp();
  return Status::OK();
}

std::optional<Bytes> OwnedPartitionHandle::Get(const Bytes& key) {
  EnterOp();
  ++local_gets_;
  if (primary_ == nullptr) {
    ExitOp();
    return std::nullopt;
  }
  auto it = primary_->find(key);
  std::optional<Bytes> result;
  if (it != primary_->end()) result = it->second;
  ExitOp();
  return result;
}

bool OwnedPartitionHandle::Remove(const Bytes& key) {
  EnterOp();
  ++local_removes_;
  bool removed = primary_ != nullptr && primary_->erase(key) > 0;
  for (PartitionStore* backup : backups_) backup->erase(key);
  ExitOp();
  return removed;
}

int64_t OwnedPartitionHandle::Size() {
  EnterOp();
  int64_t size = primary_ == nullptr ? 0 : static_cast<int64_t>(primary_->size());
  ExitOp();
  return size;
}

Status DataGrid::CheckReplicaConsistency(const std::string& map_name) const {
  jet::ReaderLock layout(layout_rw_);
  for (PartitionId p = 0; p < table_.partition_count(); ++p) {
    if (IsOwnedPair(map_name, p)) continue;  // owner is sole reader/writer
    jet::MutexLock lock(LockFor(p));
    debug::ScopedHold hold(partition_hold_[static_cast<size_t>(p)]);
    MemberId primary = table_.PrimaryFor(p);
    if (primary == kInvalidMember) continue;
    const PartitionStore* primary_store = StoreForConst(primary, map_name, p);
    for (int32_t i = 1; i <= table_.backup_count(); ++i) {
      MemberId backup = table_.ReplicaFor(p, i);
      if (backup == kInvalidMember) continue;
      const PartitionStore* backup_store = StoreForConst(backup, map_name, p);
      size_t primary_size = primary_store == nullptr ? 0 : primary_store->size();
      size_t backup_size = backup_store == nullptr ? 0 : backup_store->size();
      if (primary_size != backup_size) {
        return InternalError("replica size mismatch in partition " + std::to_string(p));
      }
      if (primary_store == nullptr) continue;
      for (const auto& [k, v] : *primary_store) {
        auto it = backup_store->find(k);
        if (it == backup_store->end() || it->second != v) {
          return InternalError("replica entry mismatch in partition " +
                               std::to_string(p));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace jet::imdg
