#ifndef JETSIM_CORE_CONFIG_H_
#define JETSIM_CORE_CONFIG_H_

#include <cstdint>

#include "common/clock.h"

namespace jet::core {

/// Processing guarantee of a job (§4.4, §4.5).
enum class ProcessingGuarantee : uint8_t {
  /// No snapshots; after a failure the job restarts empty.
  kNone = 0,
  /// Snapshots without barrier alignment: channels never block, items may
  /// be re-processed after recovery (lower latency, possible duplicates).
  kAtLeastOnce = 1,
  /// Chandy-Lamport aligned barriers: each input's effects are reflected in
  /// the state exactly once despite failures (§4.4).
  kExactlyOnce = 2,
};

/// Configuration of one job.
struct JobConfig {
  ProcessingGuarantee guarantee = ProcessingGuarantee::kNone;
  /// Interval between automatic snapshots (ignored for kNone).
  Nanos snapshot_interval = kNanosPerSecond;
  /// Outbox bucket capacity (items buffered per edge before the tasklet
  /// must drain them into queues).
  int32_t outbox_capacity = 128;
  /// Period of the scheduler's load-rebalance pass (§3.2): the service
  /// samples per-tasklet busy time and migrates tasklets off overloaded
  /// cooperative workers. 0 disables the background pass (manual
  /// ExecutionService::TriggerRebalance still works).
  Nanos rebalance_interval = 50 * kNanosPerMilli;
  /// Watchdog bound on the coordinator's wait for snapshot barrier acks.
  /// When a participant dies mid-snapshot the acks never arrive; after this
  /// long the in-flight epoch is aborted and garbage-collected instead of
  /// stalling the snapshot thread forever. 0 = wait without bound.
  Nanos snapshot_ack_timeout = 0;
  /// Round-trip every distributed-edge frame through the binary wire codec
  /// even when the hop stays in-process, so the execution pays the real
  /// serialization cost (EXPERIMENTS.md). Off by default; process-mode
  /// transports always serialize regardless of this flag.
  bool serialize_exchange_frames = false;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_CONFIG_H_
