#ifndef JETSIM_BENCH_BENCH_UTIL_H_
#define JETSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/metrics.h"
#include "sim/cluster_sim.h"

namespace jet::bench {

// ---------------------------------------------------------------------------
// Machine-readable baselines (BENCH_*.json)
// ---------------------------------------------------------------------------

/// One scenario row of a committed machine-readable baseline. The schema is
/// shared by every committed BENCH_*.json (bench_engine_micro,
/// bench_shufflebench): scenario × mode with throughput and the percentiles
/// of one timing histogram, so the baselines cannot drift in format and one
/// CI parser guards them all. Each histogram sample times either one
/// operation (`items_per_sample == 1`, written as "latency_ns") or one chunk
/// of `items_per_sample` items (written as "chunk_ns"): a chunk time is not
/// a per-event latency, and the file says which one it holds.
struct BenchScenario {
  std::string scenario;
  std::string mode;
  int64_t items = 0;
  double elapsed_sec = 0;
  double throughput = 0;  ///< items / sec
  int64_t items_per_sample = 1;
  int64_t samples = 0;
  int64_t min_ns = 0;     ///< exact minimum (Histogram q=0 endpoint)
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t p9999_ns = 0;
  int64_t max_ns = 0;     ///< exact maximum (Histogram q=1 endpoint)
};

/// Builds a scenario row from a timing histogram whose samples each cover
/// `items_per_sample` items. Percentiles come from Histogram::ValueAtQuantile
/// exclusively — in particular the min/max fields use the exact q=0 / q=1
/// endpoint semantics (q<=0 returns the exact recorded minimum, q>=1 the
/// exact maximum, not a bucket edge) — so no bench recomputes percentiles
/// ad hoc.
inline BenchScenario MakeScenario(std::string scenario, std::string mode,
                                  int64_t items, Nanos elapsed,
                                  int64_t items_per_sample, const Histogram& timing) {
  BenchScenario s;
  s.scenario = std::move(scenario);
  s.mode = std::move(mode);
  s.items = items;
  s.elapsed_sec = static_cast<double>(elapsed) / 1e9;
  s.throughput = s.elapsed_sec > 0 ? static_cast<double>(items) / s.elapsed_sec : 0;
  s.items_per_sample = items_per_sample;
  s.samples = timing.count();
  s.min_ns = timing.ValueAtQuantile(0.0);
  s.p50_ns = timing.ValueAtQuantile(0.50);
  s.p99_ns = timing.ValueAtQuantile(0.99);
  s.p9999_ns = timing.ValueAtQuantile(0.9999);
  s.max_ns = timing.ValueAtQuantile(1.0);
  return s;
}

/// Writes the shared baseline JSON document:
///   {"bench": <name>, "scenarios": [{"scenario", "mode", "items",
///    "elapsed_sec", "throughput_items_per_sec",
///    "latency_ns": {"samples", "min", "p50", "p99", "p9999", "max"}}, ...]}
/// A chunk-timed scenario writes
///    "chunk_ns": {"chunk_items", "samples", "min", ..., "max"}
/// in place of "latency_ns".
/// Returns false (with a message on stderr) when the file cannot be opened.
inline bool WriteBenchJson(const std::string& path, const std::string& bench_name,
                           const std::vector<BenchScenario>& scenarios) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scenarios\": [\n", bench_name.c_str());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const BenchScenario& s = scenarios[i];
    char timing[48];
    if (s.items_per_sample == 1) {
      std::snprintf(timing, sizeof(timing), "\"latency_ns\": {");
    } else {
      std::snprintf(timing, sizeof(timing), "\"chunk_ns\": {\"chunk_items\": %lld, ",
                    static_cast<long long>(s.items_per_sample));
    }
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"mode\": \"%s\", \"items\": %lld, "
                 "\"elapsed_sec\": %.6f, \"throughput_items_per_sec\": %.0f, "
                 "%s\"samples\": %lld, \"min\": %lld, \"p50\": %lld, \"p99\": %lld, "
                 "\"p9999\": %lld, \"max\": %lld}}%s\n",
                 s.scenario.c_str(), s.mode.c_str(), static_cast<long long>(s.items),
                 s.elapsed_sec, s.throughput, timing, static_cast<long long>(s.samples),
                 static_cast<long long>(s.min_ns), static_cast<long long>(s.p50_ns),
                 static_cast<long long>(s.p99_ns), static_cast<long long>(s.p9999_ns),
                 static_cast<long long>(s.max_ns), i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Prints one scenario as a human-readable console row (the companion of
/// WriteBenchJson for interactive runs); the percentiles are per operation
/// or per chunk, as the row says.
inline void PrintScenarioRow(const BenchScenario& s) {
  std::printf(
      "%-24s %-12s %12.0f items/s  per %-5s p50 %8lld ns  p99 %8lld ns  "
      "p99.99 %9lld ns\n",
      s.scenario.c_str(), s.mode.c_str(), s.throughput,
      s.items_per_sample == 1 ? "op" : "chunk", static_cast<long long>(s.p50_ns),
      static_cast<long long>(s.p99_ns), static_cast<long long>(s.p9999_ns));
}

/// Prints the standard percentile row of one measurement (values in ms).
inline void PrintLatencyRow(const std::string& label, const Histogram& h,
                            const std::string& extra = "") {
  std::printf("%-34s p50=%8.2f  p90=%8.2f  p99=%8.2f  p99.9=%8.2f  p99.99=%8.2f ms%s%s\n",
              label.c_str(), static_cast<double>(h.ValueAtQuantile(0.50)) / 1e6,
              static_cast<double>(h.ValueAtQuantile(0.90)) / 1e6,
              static_cast<double>(h.ValueAtQuantile(0.99)) / 1e6,
              static_cast<double>(h.ValueAtQuantile(0.999)) / 1e6,
              static_cast<double>(h.ValueAtQuantile(0.9999)) / 1e6,
              extra.empty() ? "" : "  ", extra.c_str());
}

/// Prints a full percentile-distribution curve (the format of the paper's
/// Figures 9/11/12/13).
inline void PrintPercentileCurve(const std::string& label, const Histogram& h) {
  std::printf("%s (n=%lld)\n", label.c_str(), static_cast<long long>(h.count()));
  for (const auto& [q, v] : h.PercentileCurve()) {
    std::printf("  %9.5f%%  %10.3f ms\n", q * 100.0, static_cast<double>(v) / 1e6);
  }
}

/// Prints a sim result row with utilization/saturation info.
inline void PrintSimRow(const std::string& label, const sim::SimResult& r) {
  char extra[96];
  std::snprintf(extra, sizeof(extra), "util=%.2f%s", r.peak_utilization,
                r.saturated ? " SATURATED" : "");
  PrintLatencyRow(label, r.latency, extra);
}

/// Section header.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints the per-vertex observability breakdown of a finished job (the
/// jet::obs event-loop-profiler view): how busy each tasklet's calls were
/// and where the call-time tail sits relative to the §3.2 cooperative
/// budget. A vertex whose p99.99 call time is far above the budget is the
/// one that bends the job's end-to-end tail latency.
inline void PrintVertexBreakdown(const core::JobMetrics& m) {
  std::printf("  %-28s %12s %7s %12s %12s %12s %11s\n", "tasklet", "items", "busy%",
              "call p50", "call p99.99", "call max", "overbudget");
  for (const auto& t : m.tasklets) {
    std::printf("  %-28s %12lld %6.1f%% %9.1f us %9.1f us %9.1f us %11lld\n",
                t.name.c_str(), static_cast<long long>(t.items_processed),
                100.0 * t.BusyFraction(), static_cast<double>(t.p50_call_nanos) / 1e3,
                static_cast<double>(t.p9999_call_nanos) / 1e3,
                static_cast<double>(t.max_call_nanos) / 1e3,
                static_cast<long long>(t.overbudget_calls));
  }
}

}  // namespace jet::bench

#endif  // JETSIM_BENCH_BENCH_UTIL_H_
