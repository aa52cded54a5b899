#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Per-vertex tracing from outside the engine: a Processor decorator that
// times every call a tasklet makes into the wrapped processor, installed by
// rebuilding a job's core::Dag with wrapped suppliers. Nothing in the engine
// knows it is being traced.

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/thread_annotations.h"
#include "core/dag.h"
#include "core/processor.h"

namespace perfbench {

using jet::Nanos;

/// §3.2's cooperative budget: a call longer than this holds its worker
/// thread past the point where other tasklets should have run.
constexpr Nanos kSlowCallNanos = jet::kNanosPerMilli;

/// Where a vertex belongs in the per-layer report: the module that does its
/// per-event work (`nexmark`, `shufflebench`, `core`) and a role name that
/// is stable across planner renames (`source`, `map`, `combine`, ...).
struct Role {
  std::string module;
  std::string role;
};

/// One decorated call that ran past kSlowCallNanos.
struct Span {
  std::string role;
  int32_t instance = 0;
  const char* method = "";
  Nanos start = 0;  ///< WallClock::Global() reading at call entry
  Nanos end = 0;
};

/// What one decorated processor instance saw. Written only by the worker
/// running the instance; read after the job has been joined.
struct VertexStats {
  Role role;
  int32_t instance = 0;
  int64_t calls = 0;
  int64_t items = 0;  ///< data items consumed (or, for sources, emitted)
  Nanos busy = 0;
  int64_t slow_calls = 0;
  Nanos wm_busy = 0;
  Nanos wm_max = 0;
  Nanos snapshot_busy = 0;
  jet::Histogram call_nanos;
  /// Now minus the item timestamp, per data item, at the start of the call
  /// that first sees it.
  jet::Histogram arrival_age;
  std::vector<Span> spans;
};

/// The stats of every decorated instance of one job.
class TraceLog {
 public:
  VertexStats* NewInstance(const Role& role, int32_t instance) {
    jet::MutexLock lock(mutex_);
    auto& stats = instances_.emplace_back();
    stats.role = role;
    stats.instance = instance;
    return &stats;
  }

  /// Only call once every decorated processor has stopped running.
  const std::deque<VertexStats>& instances() const { return instances_; }

 private:
  jet::Mutex mutex_;
  std::deque<VertexStats> instances_;  // deque: pointers stay valid
};

/// Copies `dag`, taking each vertex's supplier from `supplier_for` (which
/// may return the vertex's own). Edges keep every routing property.
jet::core::Dag RebuildDag(
    const jet::core::Dag& dag,
    const std::function<jet::core::ProcessorSupplier(const jet::core::Vertex&)>&
        supplier_for);

/// Rebuilds `dag` with every vertex traced into `log`. `roles` maps each
/// vertex name to its role; a vertex missing from it is an error, since the
/// report would silently lose a layer.
jet::Result<jet::core::Dag> TraceDag(const jet::core::Dag& dag,
                                     const std::map<std::string, Role>& roles,
                                     TraceLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
