#include "imdg/ownership.h"

namespace jet::imdg {

PartitionOwnershipTable::PartitionOwnershipTable(int32_t partition_count)
    : owners_(static_cast<size_t>(partition_count > 0 ? partition_count : 0)),
      owners_size_(static_cast<size_t>(partition_count > 0 ? partition_count : 0)) {}

Status PartitionOwnershipTable::Claim(PartitionId partition, int32_t worker,
                                      int64_t tasklet) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  if (tasklet == kNoTasklet) return InvalidArgumentError("invalid tasklet id");
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != kNoTasklet && owner.tasklet != tasklet) {
    return FailedPreconditionError("partition " + std::to_string(partition) +
                                   " already owned by tasklet " +
                                   std::to_string(owner.tasklet));
  }
  if (owner.tasklet == kNoTasklet) {
    owned_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  owner.tasklet = tasklet;
  owner.worker = worker;
  return Status::OK();
}

Status PartitionOwnershipTable::Transfer(PartitionId partition, int64_t tasklet,
                                         int32_t new_worker) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != tasklet) {
    return FailedPreconditionError("transfer by non-owner of partition " +
                                   std::to_string(partition));
  }
  owner.worker = new_worker;
  transfers_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status PartitionOwnershipTable::Release(PartitionId partition, int64_t tasklet) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != tasklet) {
    return FailedPreconditionError("release by non-owner of partition " +
                                   std::to_string(partition));
  }
  owner = Owner{};
  owned_count_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

bool PartitionOwnershipTable::IsOwnedBy(PartitionId partition, int64_t tasklet) const {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) return false;
  jet::MutexLock lock(mutex_);
  return owners_[static_cast<size_t>(partition)].tasklet == tasklet;
}

PartitionOwnershipTable* OwnershipRegistry::TableFor(const std::string& domain,
                                                     int32_t partition_count) {
  jet::MutexLock lock(mutex_);
  auto it = tables_.find(domain);
  if (it != tables_.end()) {
    if (it->second->partition_count() != partition_count) return nullptr;
    return it->second.get();
  }
  auto table = std::make_unique<PartitionOwnershipTable>(partition_count);
  PartitionOwnershipTable* raw = table.get();
  tables_[domain] = std::move(table);
  return raw;
}

int64_t OwnershipRegistry::owned_count() const {
  jet::MutexLock lock(mutex_);
  int64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->owned_count();
  return total;
}

int64_t OwnershipRegistry::transfers() const {
  jet::MutexLock lock(mutex_);
  int64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->transfers();
  return total;
}

}  // namespace jet::imdg
