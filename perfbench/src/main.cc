// End-to-end benchmark of the engine: per-event latency (§7.1) and
// throughput on NEXMark Q1 and a 2-member ShuffleBench job (plus NEXMark Q5,
// which is not in BENCHMARK.json; see Workloads()).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--report-dir <dir>]
//
// A pass runs the workload's rounds for <s> seconds. --trace 0 runs one
// untraced pass and reports the end-to-end metrics. --trace 1 runs an
// untraced and then a traced pass (every vertex wrapped in a timing
// decorator), reports the per-layer metrics and the cost of tracing, and
// writes the full traced report (every end-to-end percentile, per-round
// checks, the slowest results and every call over 1 ms) to
// <dir>/<workload>-seed<n>.json. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The metric names and units match BENCHMARK.json at the repository root.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metric values by name; units come from the definition tables.
using Metrics = std::map<std::string, double>;

// --- metric definitions ------------------------------------------------------

// Latency percentiles are printed on every run and kept in the traced
// report, but are not end-to-end metrics: on a shared host their run-to-run
// spread (0.08 to 1.3 of the median over ten runs) is wider than any bound
// a regression check could use. See EngineThroughput for throughput_eps.
const std::vector<MetricDef>& EndToEndDefs() {
  static const auto* defs = new std::vector<MetricDef>{
      {"throughput_eps", "1/s"},
      {"setup_s", "s"},
  };
  return *defs;
}

struct RoleDef {
  const char* key;  // "<module>.<role>"
  enum Kind { kSource, kHop, kStateful } kind;
};

// Every role of every workload in BENCHMARK.json; a role a workload does
// not have reads 0 there (its layer is bypassed). q5-eo, which is not in
// BENCHMARK.json, reports its core.bids and core.accumulate roles only as
// slow-call spans.
const std::vector<RoleDef>& RoleDefs() {
  static const auto* defs = new std::vector<RoleDef>{
      {"nexmark.source", RoleDef::kSource},    {"shufflebench.source", RoleDef::kSource},
      {"core.map", RoleDef::kHop},             {"shufflebench.match", RoleDef::kStateful},
      {"core.combine", RoleDef::kStateful},    {"core.sink", RoleDef::kHop},
  };
  return *defs;
}

const std::vector<MetricDef>& RegistryDefs() {
  static const auto* defs = new std::vector<MetricDef>{
      {"core.sched_delay_p9999_us", "us"},
      {"core.idle_call_ratio", "ratio"},
      {"core.rebalances", "count"},
      {"core.migrated_tasklets", "count"},
      {"core.input_queue_depth_max", "items"},
      {"net.items_sent", "items"},
      {"net.batch_size_p50", "items"},
      {"net.acks_sent", "count"},
      {"net.wire_depth_max", "frames"},
      {"imdg.puts", "count"},
      {"imdg.replicated_bytes", "bytes"},
      {"imdg.owned_partitions", "count"},
      {"imdg.snapshots_taken", "count"},
      {"imdg.snapshots_aborted", "count"},
      {"cluster.restarts", "count"},
      {"trace.latency_p50_ratio", "ratio"},
      {"trace.latency_p99_ratio", "ratio"},
      {"trace.throughput_ratio", "ratio"},
  };
  return *defs;
}

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs;
  for (const RoleDef& role : RoleDefs()) {
    const std::string k = role.key;
    for (const MetricDef& d : std::vector<MetricDef>{{".calls", "count"},
                                                     {".items", "items"},
                                                     {".busy_ms", "ms"},
                                                     {".call_p9999_us", "us"},
                                                     {".call_max_us", "us"},
                                                     {".slow_calls", "count"}}) {
      defs.push_back({k + d.name, d.unit});
    }
    if (role.kind != RoleDef::kSource) {
      defs.push_back({k + ".arrival_age_p50_us", "us"});
      defs.push_back({k + ".arrival_age_p9999_us", "us"});
    }
    if (role.kind == RoleDef::kStateful) {
      defs.push_back({k + ".wm_busy_ms", "ms"});
      defs.push_back({k + ".wm_max_us", "us"});
    }
    if (role.kind != RoleDef::kHop) defs.push_back({k + ".snapshot_busy_ms", "ms"});
  }
  for (const MetricDef& d : RegistryDefs()) defs.push_back(d);
  return defs;
}

// --- formatting ---------------------------------------------------------------

/// Shortest decimal form that reads back as the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<MetricDef>& defs, const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    out += (i ? ", " : "") + Quote(defs[i].name) + ": {\"value\": " +
           Num(m.at(defs[i].name)) + ", \"unit\": " + Quote(defs[i].unit) + "}";
  }
  return out + "}";
}

// --- summarising rounds ----------------------------------------------------------

/// Nearest-rank quantile of exact samples.
double Quantile(std::vector<Nanos> v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const std::vector<std::pair<const char*, double>>& Percentiles() {
  static const auto* p = new std::vector<std::pair<const char*, double>>{
      {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}, {"p9999", 0.9999},
      {"max", 1.0}};
  return *p;
}

/// End-to-end view of a set of rounds: each latency percentile is the
/// median of the rounds' exact percentiles, throughputs and set-up the
/// median of theirs.
struct Summary {
  std::map<std::string, double> latency_us;  // "p50" -> µs
  double throughput_eps = 0;       ///< EngineThroughput
  double wall_throughput_eps = 0;  ///< events per second of wall time
  double setup_s = 0;
  int64_t samples = 0;
  int64_t expected = 0;
  int64_t errors = 0;
  size_t rounds = 0;
};

double WallThroughput(const Round& r) {
  return static_cast<double>(r.events) / (static_cast<double>(r.run) / 1e9);
}

double CpuNanosPerEvent(const Round& r) {
  return static_cast<double>(r.cpu) / static_cast<double>(r.events);
}

/// Events per second of the engine's time. An open-loop round's pace is set
/// by its schedule, so its time is its wall time: this only drops when the
/// engine cannot keep up with the offered rate. A capacity round's wall
/// time depends on how much of the host's CPU the process gets, which on a
/// shared host varies from minute to minute (on a shared 4-vCPU VM, wall
/// throughput of unthrottled Q1 spread 0.35 between five runs while its CPU
/// time per event spread 0.04); its time is the process's CPU time shared
/// over the worker threads, which the engine alone sets.
double EngineThroughput(const Round& r, bool capacity) {
  if (!capacity) return WallThroughput(r);
  return static_cast<double>(r.events) /
         (static_cast<double>(r.cpu) / kWorkerThreads / 1e9);
}

Summary Summarize(const std::vector<Round>& rounds, bool capacity) {
  Summary s;
  s.rounds = rounds.size();
  std::map<std::string, std::vector<double>> per_round;
  std::vector<double> throughput;
  std::vector<double> wall_throughput;
  std::vector<double> setup;
  for (const Round& r : rounds) {
    for (const auto& [name, q] : Percentiles()) {
      per_round[name].push_back(Quantile(r.latency, q) / 1e3);
    }
    throughput.push_back(EngineThroughput(r, capacity));
    wall_throughput.push_back(WallThroughput(r));
    setup.push_back(static_cast<double>(r.setup) / 1e9);
    s.samples += static_cast<int64_t>(r.latency.size());
    s.expected += r.expected;
    s.errors += r.errors;
  }
  for (auto& [name, values] : per_round) s.latency_us[name] = Median(values);
  s.throughput_eps = Median(throughput);
  s.wall_throughput_eps = Median(wall_throughput);
  s.setup_s = Median(setup);
  return s;
}

Metrics EndToEnd(const Summary& s) {
  return Metrics{{"throughput_eps", s.throughput_eps}, {"setup_s", s.setup_s}};
}

double ErrorRatio(const Summary& s) {
  return s.expected == 0 ? 1.0 : static_cast<double>(s.errors) / static_cast<double>(s.expected);
}

void PrintSummary(const char* label, const Summary& s) {
  std::printf("%s: %zu rounds, %lld latency samples\n", label, s.rounds,
              static_cast<long long>(s.samples));
  if (s.samples > 0) {  // capacity rounds time no result
    for (const auto& [name, q] : Percentiles()) {
      (void)q;
      std::printf("  latency_%s_us      %14.3f us   (median over rounds)\n", name,
                  s.latency_us.at(name));
    }
  }
  std::printf("  throughput_eps      %14.1f 1/s   (median over rounds)\n", s.throughput_eps);
  std::printf("  wall throughput     %14.1f 1/s   (median over rounds)\n",
              s.wall_throughput_eps);
  std::printf("  setup_s             %14.6f s     (CPU time, median over rounds)\n",
              s.setup_s);
  std::printf("  error_ratio         %14.9f      (%lld of %lld expected results)\n",
              ErrorRatio(s), static_cast<long long>(s.errors),
              static_cast<long long>(s.expected));
}

// --- per-layer aggregation -----------------------------------------------------

struct RoleTotals {
  int64_t calls = 0;
  int64_t items = 0;
  Nanos busy = 0;
  int64_t slow_calls = 0;
  Nanos wm_busy = 0;
  Nanos wm_max = 0;
  Nanos snapshot_busy = 0;
  jet::Histogram call_nanos;
  jet::Histogram arrival_age;
};

Metrics PerLayer(const std::vector<Round>& traced, const Summary& timed,
                 const Summary& traced_summary, std::vector<Span>* spans) {
  std::map<std::string, RoleTotals> roles;
  RegistryReadings reg;
  for (const Round& r : traced) {
    for (const VertexStats& v : r.trace->instances()) {
      RoleTotals& t = roles[v.role.module + "." + v.role.role];
      t.calls += v.calls;
      t.items += v.items;
      t.busy += v.busy;
      t.slow_calls += v.slow_calls;
      t.wm_busy += v.wm_busy;
      t.wm_max = std::max(t.wm_max, v.wm_max);
      t.snapshot_busy += v.snapshot_busy;
      t.call_nanos.Merge(v.call_nanos);
      t.arrival_age.Merge(v.arrival_age);
      spans->insert(spans->end(), v.spans.begin(), v.spans.end());
    }
    const RegistryReadings& x = r.registry;
    MergeInto(&reg.sched_delay, x.sched_delay);
    MergeInto(&reg.batch_size, x.batch_size);
    reg.calls += x.calls;
    reg.idle_calls += x.idle_calls;
    reg.rebalances += x.rebalances;
    reg.migrated_tasklets += x.migrated_tasklets;
    reg.input_queue_depth_max = std::max(reg.input_queue_depth_max, x.input_queue_depth_max);
    reg.items_sent += x.items_sent;
    reg.acks_sent += x.acks_sent;
    reg.wire_depth_max = std::max(reg.wire_depth_max, x.wire_depth_max);
    reg.puts += x.puts;
    reg.replicated_bytes += x.replicated_bytes;
    reg.owned_partitions = std::max(reg.owned_partitions, x.owned_partitions);
    reg.snapshots_taken += x.snapshots_taken;
    reg.snapshots_aborted += x.snapshots_aborted;
    reg.restarts += x.restarts;
  }
  for (const RoleDef& role : RoleDefs()) {
    if (roles.count(role.key) == 0) roles[role.key];  // bypassed: all zero
  }

  Metrics m;
  const auto us = [](double nanos) { return nanos / 1e3; };
  const auto ms = [](double nanos) { return nanos / 1e6; };
  for (const auto& [key, t] : roles) {
    m[key + ".calls"] = static_cast<double>(t.calls);
    m[key + ".items"] = static_cast<double>(t.items);
    m[key + ".busy_ms"] = ms(static_cast<double>(t.busy));
    m[key + ".call_p9999_us"] = us(static_cast<double>(t.call_nanos.ValueAtQuantile(0.9999)));
    m[key + ".call_max_us"] = us(static_cast<double>(t.call_nanos.max()));
    m[key + ".slow_calls"] = static_cast<double>(t.slow_calls);
    m[key + ".arrival_age_p50_us"] =
        us(static_cast<double>(t.arrival_age.ValueAtQuantile(0.5)));
    m[key + ".arrival_age_p9999_us"] =
        us(static_cast<double>(t.arrival_age.ValueAtQuantile(0.9999)));
    m[key + ".wm_busy_ms"] = ms(static_cast<double>(t.wm_busy));
    m[key + ".wm_max_us"] = us(static_cast<double>(t.wm_max));
    m[key + ".snapshot_busy_ms"] = ms(static_cast<double>(t.snapshot_busy));
  }
  const auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  m["core.sched_delay_p9999_us"] =
      us(static_cast<double>(reg.sched_delay.ValueAtQuantile(0.9999)));
  m["core.idle_call_ratio"] =
      ratio(static_cast<double>(reg.idle_calls), static_cast<double>(reg.calls));
  m["core.rebalances"] = static_cast<double>(reg.rebalances);
  m["core.migrated_tasklets"] = static_cast<double>(reg.migrated_tasklets);
  m["core.input_queue_depth_max"] = static_cast<double>(reg.input_queue_depth_max);
  m["net.items_sent"] = static_cast<double>(reg.items_sent);
  m["net.batch_size_p50"] = static_cast<double>(reg.batch_size.ValueAtQuantile(0.5));
  m["net.acks_sent"] = static_cast<double>(reg.acks_sent);
  m["net.wire_depth_max"] = static_cast<double>(reg.wire_depth_max);
  m["imdg.puts"] = static_cast<double>(reg.puts);
  m["imdg.replicated_bytes"] = static_cast<double>(reg.replicated_bytes);
  m["imdg.owned_partitions"] = static_cast<double>(reg.owned_partitions);
  m["imdg.snapshots_taken"] = static_cast<double>(reg.snapshots_taken);
  m["imdg.snapshots_aborted"] = static_cast<double>(reg.snapshots_aborted);
  m["cluster.restarts"] = static_cast<double>(reg.restarts);
  m["trace.latency_p50_ratio"] =
      ratio(traced_summary.latency_us.at("p50"), timed.latency_us.at("p50"));
  m["trace.latency_p99_ratio"] =
      ratio(traced_summary.latency_us.at("p99"), timed.latency_us.at("p99"));
  m["trace.throughput_ratio"] = ratio(traced_summary.throughput_eps, timed.throughput_eps);
  return m;
}

// --- the traced report --------------------------------------------------------

std::string SummaryJson(const Summary& s) {
  std::string out = "{\"rounds\": " + std::to_string(s.rounds) +
                    ", \"latency_samples\": " + std::to_string(s.samples) + ", \"latency_us\": {";
  bool first = true;
  for (const auto& [name, q] : Percentiles()) {
    (void)q;
    out += std::string(first ? "" : ", ") + Quote(name) + ": " + Num(s.latency_us.at(name));
    first = false;
  }
  return out + "}, \"throughput_eps\": " + Num(s.throughput_eps) +
         ", \"wall_throughput_eps\": " + Num(s.wall_throughput_eps) +
         ", \"setup_s\": " + Num(s.setup_s) + ", \"error_ratio\": " + Num(ErrorRatio(s)) + "}";
}

std::string RoundsJson(const std::vector<Round>& rounds) {
  std::string out = "[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    out += std::string(i ? ",\n    " : "\n    ") + "{\"check\": " + Quote(r.check) +
           ", \"errors\": " + std::to_string(r.errors) + ", \"slowest\": [";
    for (size_t j = 0; j < r.tail.size(); ++j) {
      out += std::string(j ? ", " : "") + "{\"arrival_us\": " + Num(r.tail[j].first / 1e3) +
             ", \"latency_us\": " + Num(r.tail[j].second / 1e3) + "}";
    }
    out += "]}";
  }
  return out + "\n  ]";
}

bool WriteReport(const std::string& path, const std::string& workload, uint64_t seed,
                 const Summary& timed, const Summary& traced,
                 const std::vector<Round>& traced_rounds, const Metrics& layers,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string doc = "{\n  \"workload\": " + Quote(workload) +
                    ",\n  \"seed\": " + std::to_string(seed) +
                    ",\n  \"untraced\": " + SummaryJson(timed) +
                    ",\n  \"traced\": " + SummaryJson(traced) +
                    ",\n  \"traced_rounds\": " + RoundsJson(traced_rounds) +
                    ",\n  \"per_layer\": " + MetricsJson(PerLayerDefs(), layers) +
                    ",\n  \"slow_calls\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    doc += std::string(i ? ",\n    " : "\n    ") + "{\"role\": " + Quote(s.role) +
           ", \"instance\": " + std::to_string(s.instance) + ", \"method\": " + Quote(s.method) +
           ", \"start_us\": " + Num(s.start / 1e3) + ", \"end_us\": " + Num(s.end / 1e3) +
           ", \"took_us\": " + Num((s.end - s.start) / 1e3) + "}";
  }
  doc += "\n  ]\n}\n";
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

// --- running rounds -------------------------------------------------------------

constexpr int kMinCapacityRounds = 3;

/// Open-loop workloads run `seconds / kOpenLoopRoundSeconds` rounds (at
/// least 2); capacity workloads run rounds until `seconds` are spent (at
/// least kMinCapacityRounds).
jet::Result<std::vector<Round>> RunRounds(const Workload& w, uint64_t seed, double seconds,
                                          bool traced) {
  std::vector<Round> rounds;
  const int open_rounds =
      std::max(2, static_cast<int>(std::lround(seconds / kOpenLoopRoundSeconds)));
  const auto budget = static_cast<jet::Nanos>(seconds * 1e9);
  const jet::Nanos begin = jet::WallClock::Global().Now();
  const auto more = [&](int i) {
    if (!w.capacity) return i < open_rounds;
    return i < kMinCapacityRounds || jet::WallClock::Global().Now() - begin < budget;
  };
  for (int i = 0; more(i); ++i) {
    auto round = w.run_round(RoundOptions{seed, i, traced, w.capacity});
    if (!round.ok()) return round.status();
    std::printf("  round %d%s: p50 %.1f us, p99 %.1f us, %.0f events/s, %.1f cpu ns/event, "
                "setup %.6f s; %s\n",
                i, traced ? " (traced)" : "", Quantile(round->latency, 0.5) / 1e3,
                Quantile(round->latency, 0.99) / 1e3, WallThroughput(*round),
                CpuNanosPerEvent(*round), static_cast<double>(round->setup) / 1e9,
                round->check.c_str());
    std::fflush(stdout);
    rounds.push_back(std::move(round).value());
  }
  return rounds;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--report-dir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string report_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--report-dir") {
      report_dir = v;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) return Usage();

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n", w->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  auto timed_rounds = RunRounds(*w, seed, seconds, /*traced=*/false);
  if (!timed_rounds.ok()) {
    std::fprintf(stderr, "run failed: %s\n", timed_rounds.status().ToString().c_str());
    return 1;
  }
  const Summary timed = Summarize(*timed_rounds, w->capacity);
  PrintSummary("untraced", timed);
  Summary all = timed;

  std::vector<MetricDef> defs = EndToEndDefs();
  Metrics metrics = EndToEnd(timed);
  if (trace == 1) {
    auto traced_rounds = RunRounds(*w, seed, seconds, /*traced=*/true);
    if (!traced_rounds.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", traced_rounds.status().ToString().c_str());
      return 1;
    }
    const Summary traced = Summarize(*traced_rounds, w->capacity);
    PrintSummary("traced", traced);
    all.expected += traced.expected;
    all.errors += traced.errors;
    std::vector<Span> spans;
    defs = PerLayerDefs();
    metrics = PerLayer(*traced_rounds, timed, traced, &spans);
    std::printf("per-layer (traced rounds), %zu calls over 1 ms:\n", spans.size());
    for (const MetricDef& d : defs) {
      std::printf("  %-40s %16s %s\n", d.name.c_str(), Num(metrics.at(d.name)).c_str(),
                  d.unit.c_str());
    }
    if (!report_dir.empty()) {
      const std::string path =
          report_dir + "/" + w->name + "-seed" + std::to_string(seed) + ".json";
      if (!WriteReport(path, w->name, seed, timed, traced, *traced_rounds, metrics, spans)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("traced report: %s\n", path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              all.errors == 0 && all.expected > 0 ? "true" : "false",
              static_cast<long long>(all.expected),
              static_cast<long long>(all.errors), MetricsJson(defs, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
