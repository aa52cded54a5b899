#ifndef JETSIM_OBS_COLLECTOR_TASKLET_H_
#define JETSIM_OBS_COLLECTOR_TASKLET_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "core/tasklet.h"
#include "imdg/grid.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"

namespace jet::obs {

/// Periodically publishes a JSON snapshot of a member's metrics registry
/// into the IMDG (the paper's Management Center persists job metrics in
/// IMaps so they survive the member that produced them and can be queried
/// cluster-wide). Scheduled as one more cooperative tasklet on the
/// member's execution service; runs until the watched tasklets finish,
/// then publishes one final snapshot and completes.
///
/// Header-only on purpose: jet_obs links only against jet_common, and this
/// adapter is the single place obs meets core/imdg types.
class MetricsCollectorTasklet final : public core::Tasklet {
 public:
  /// IMDG map holding the snapshots.
  static constexpr const char* kMapName = "__jet.metrics";

  struct Options {
    /// Entry key, e.g. "job-7/member-0".
    std::string key;
    Nanos publish_interval = 500 * kNanosPerMilli;
  };

  /// `registry`, `grid` and `clock` must outlive the tasklet.
  /// `upstream_done` reports whether the member's real tasklets have all
  /// finished (thread-safe); once it returns true the collector publishes
  /// a final snapshot and completes, so it never keeps the execution
  /// service alive on its own.
  MetricsCollectorTasklet(const MetricsRegistry* registry, imdg::DataGrid* grid,
                          const Clock* clock, Options options,
                          std::function<bool()> upstream_done)
      : registry_(registry),
        grid_(grid),
        clock_(clock),
        options_(std::move(options)),
        upstream_done_(std::move(upstream_done)),
        name_("metrics-collector/" + options_.key) {}

  core::TaskletProgress Call() override {
    const bool done = !upstream_done_ || upstream_done_();
    const Nanos now = clock_->Now();
    if (!done && published_once_ && now < next_publish_) return {false, false};
    Publish();
    next_publish_ = now + options_.publish_interval;
    return {true, done};
  }

  const std::string& name() const override { return name_; }

  int64_t publishes() const { return publishes_.Value(); }

 private:
  void Publish() {
    // jet-verify: allow(lock-in-call) — the registry snapshot and the grid
    // put take short internal locks; at the publish cadence (2 Hz) this
    // stays well within the cooperative budget.
    std::string json = RenderJson(registry_->Snapshot());
    Bytes key(options_.key.begin(), options_.key.end());
    Bytes value(json.begin(), json.end());
    (void)grid_->Put(kMapName, key, value);
    published_once_ = true;
    publishes_.Add(1);
  }

  const MetricsRegistry* registry_;
  imdg::DataGrid* grid_;
  const Clock* clock_;
  Options options_;
  std::function<bool()> upstream_done_;
  std::string name_;
  Nanos next_publish_ = 0;
  bool published_once_ = false;
  Counter publishes_;  // standalone cell; readable from any thread
};

}  // namespace jet::obs

#endif  // JETSIM_OBS_COLLECTOR_TASKLET_H_
