#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each runs the real engine (planner, tasklets,
// SPSC queues and, for shuffle-eo, the exchange and the grid) as a series of
// rounds: one round is one job from creation to completion, with its output
// checked against a reference computed from the same generator functions.
//
// Open-loop rounds offer a fixed 100k events/s in real time (per-event
// latency). Capacity rounds (q1-max) put the job's whole event time in the
// past, so the source emits as fast as the job takes events: their
// throughput is set by the engine, not by the offered rate.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "trace.h"

namespace perfbench {

/// Adds `h` into `total`. Histograms merge only with an equal bucket
/// layout, so the first one merged sets the layout of the total.
inline void MergeInto(jet::Histogram* total, const jet::Histogram& h) {
  if (total->count() == 0) {
    *total = h;
  } else {
    total->Merge(h);
  }
}

/// Counters read from outside through public calls: the job's obs registry
/// (MetricSnapshots()), the grid's stats and the job's own accessors.
/// Gauges are sampled while the round runs and keep their maximum.
struct RegistryReadings {
  jet::Histogram sched_delay;  ///< tasklet.sched_delay_nanos, all tasklets
  jet::Histogram batch_size;   ///< exchange.batch_size, all senders
  int64_t calls = 0;
  int64_t idle_calls = 0;
  int64_t rebalances = 0;
  int64_t migrated_tasklets = 0;
  int64_t input_queue_depth_max = 0;
  int64_t items_sent = 0;
  int64_t acks_sent = 0;
  int64_t wire_depth_max = 0;
  int64_t puts = 0;
  int64_t replicated_bytes = 0;
  int64_t owned_partitions = 0;
  int64_t snapshots_taken = 0;
  int64_t snapshots_aborted = 0;
  int64_t restarts = 0;
};

/// What one round measured and checked.
struct Round {
  std::vector<jet::Nanos> latency;  ///< §7.1 latency of every result
  /// The slowest results as (arrival time, latency), arrival on the
  /// WallClock::Global() time line the trace spans use.
  std::vector<std::pair<jet::Nanos, jet::Nanos>> tail;
  int64_t events = 0;      ///< events the source generated
  int64_t expected = 0;    ///< results the reference expects
  /// Missing, wrong and repeated results (shuffle-eo: only repeats whose
  /// count conflicts).
  int64_t errors = 0;
  std::string check;     ///< one line describing what was checked
  /// CPU time the calling thread spends on planning, job creation and
  /// start (and cluster formation for shuffle-eo). Its wall time also
  /// counts waits for the host's scheduler: on a shared host a set-up's
  /// wall time ranges over ten times its usual value.
  jet::Nanos setup = 0;
  /// From the later of job start and event-time start to job completion.
  jet::Nanos run = 0;
  /// CPU time of the whole process from job creation to completion.
  jet::Nanos cpu = 0;
  /// Traced rounds only.
  std::unique_ptr<TraceLog> trace;
  RegistryReadings registry;
};

/// Every workload runs on 2 cooperative worker threads.
constexpr int32_t kWorkerThreads = 2;

/// Event time of one open-loop round.
constexpr double kOpenLoopRoundSeconds = 2.0;

struct RoundOptions {
  uint64_t seed = 0;
  int32_t round_index = 0;
  bool traced = false;
  /// A capacity round (unthrottled source) instead of an open-loop one.
  bool capacity = false;
};

struct Workload {
  const char* name;
  jet::Result<Round> (*run_round)(const RoundOptions& options);
  /// Runs capacity rounds.
  bool capacity = false;
};

/// The workloads, in BENCHMARK.json order, then q5-eo (see workloads.cc).
const std::vector<Workload>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
