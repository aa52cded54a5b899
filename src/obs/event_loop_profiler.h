#ifndef JETSIM_OBS_EVENT_LOOP_PROFILER_H_
#define JETSIM_OBS_EVENT_LOOP_PROFILER_H_

#include <deque>
#include <string>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"

namespace jet::obs {

/// Times every tasklet Call() against the cooperative time-slice budget
/// (§3.2: a tasklet call must do a bounded amount of work, well under a
/// millisecond — one misbehaving tasklet delays every other tasklet on its
/// worker and shows up as a 99.99th-percentile latency knee).
///
/// The ExecutionService registers each tasklet once before the worker
/// threads start and wraps Call() with two clock reads; per-call recording
/// goes into single-writer instruments ("tasklet.call_nanos" histogram and
/// "tasklet.overbudget_calls" counter, tagged {tasklet, worker}).
class EventLoopProfiler {
 public:
  /// Budget one cooperative Call() should stay under.
  static constexpr Nanos kCallBudget = kNanosPerMilli;
  /// Upper bound of the call-duration histograms.
  static constexpr Nanos kMaxCallNanos = 10 * kNanosPerSecond;

  /// Per-tasklet recording slot; written only by the hosting worker. When a
  /// tasklet migrates to another worker the scheduler registers a *new*
  /// profile under the new {tasklet, worker} tag pair and stops writing the
  /// old one, so each slot keeps the single-writer discipline and per-worker
  /// histograms stay attributable.
  class TaskletProfile {
   public:
    void RecordCall(Nanos duration) {
      if (duration < 0) duration = 0;
      call_nanos_.Record(duration);
      if (duration > kCallBudget) overbudget_.Add(1);
    }

    /// Start/end variant: additionally records the scheduling delay — the
    /// gap since this tasklet's previous call ended on this worker. On an
    /// overloaded worker the delay is dominated by the siblings' time
    /// slices, which is exactly the §3.2 tail-latency mechanism the
    /// rebalancer exists to fix.
    void RecordCall(Nanos start, Nanos end) {
      RecordCall(end - start);
      if (last_end_ > 0 && start > last_end_) sched_delay_nanos_.Record(start - last_end_);
      last_end_ = end;
    }

    int64_t overbudget_calls() const { return overbudget_.Value(); }

   private:
    friend class EventLoopProfiler;
    TaskletProfile(HistogramHandle call_nanos, HistogramHandle sched_delay,
                   Counter overbudget)
        : call_nanos_(std::move(call_nanos)),
          sched_delay_nanos_(std::move(sched_delay)),
          overbudget_(std::move(overbudget)) {}

    HistogramHandle call_nanos_;
    HistogramHandle sched_delay_nanos_;
    Counter overbudget_;
    Nanos last_end_ = 0;
  };

  /// Per-worker recording slot ("worker.round_nanos": duration of one full
  /// round-robin pass). Written only by that worker's thread.
  class WorkerProfile {
   public:
    void RecordRound(Nanos duration) {
      if (duration < 0) duration = 0;
      round_nanos_.Record(duration);
    }

   private:
    friend class EventLoopProfiler;
    explicit WorkerProfile(HistogramHandle round_nanos)
        : round_nanos_(std::move(round_nanos)) {}

    HistogramHandle round_nanos_;
  };

  /// `registry` must outlive the profiler. `clock` defaults to wall time.
  explicit EventLoopProfiler(MetricsRegistry* registry, const Clock* clock = nullptr)
      : registry_(registry), clock_(clock != nullptr ? clock : &WallClock::Global()) {}

  EventLoopProfiler(const EventLoopProfiler&) = delete;
  EventLoopProfiler& operator=(const EventLoopProfiler&) = delete;

  /// Registers `tasklet_name` hosted on worker-thread `worker`. The
  /// returned slot stays valid for the profiler's lifetime (deque-backed).
  /// Safe from any thread; the *caller* must guarantee that writes into the
  /// returned slot come from one thread at a time (the scheduler's
  /// round-boundary handoff does).
  TaskletProfile* Register(const std::string& tasklet_name, int32_t worker) {
    MetricTags tags;
    tags.tasklet = tasklet_name;
    tags.worker = worker;
    HistogramHandle h = registry_->GetHistogram("tasklet.call_nanos", tags, kMaxCallNanos);
    HistogramHandle delay =
        registry_->GetHistogram("tasklet.sched_delay_nanos", tags, kMaxCallNanos);
    Counter over = registry_->GetCounter("tasklet.overbudget_calls", tags);
    jet::MutexLock lock(mutex_);
    profiles_.push_back(TaskletProfile(std::move(h), std::move(delay), std::move(over)));
    return &profiles_.back();
  }

  /// Registers cooperative worker `worker`'s round-duration slot.
  WorkerProfile* RegisterWorker(int32_t worker) {
    MetricTags tags;
    tags.worker = worker;
    HistogramHandle h = registry_->GetHistogram("worker.round_nanos", tags, kMaxCallNanos);
    jet::MutexLock lock(mutex_);
    worker_profiles_.push_back(WorkerProfile(std::move(h)));
    return &worker_profiles_.back();
  }

  const Clock& clock() const { return *clock_; }

  /// Registry the profiles live in; the scheduler hangs its own
  /// "scheduler.*" instruments off the same registry.
  MetricsRegistry* registry() const { return registry_; }

 private:
  MetricsRegistry* registry_;
  const Clock* clock_;
  jet::Mutex mutex_;
  std::deque<TaskletProfile> profiles_ JET_GUARDED_BY(mutex_);
  std::deque<WorkerProfile> worker_profiles_ JET_GUARDED_BY(mutex_);
};

}  // namespace jet::obs

#endif  // JETSIM_OBS_EVENT_LOOP_PROFILER_H_
