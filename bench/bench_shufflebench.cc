// ShuffleBench workload bench (Henning et al., arXiv 2403.04570): large
// shuffles over up to 1M keys with configurable per-key matcher state,
// measured at high percentiles — the regime where the paper's 99.99th-
// percentile claim actually gets stressed by state size, not just by
// queue hops.
//
// Emits BENCH_shufflebench.json (same schema family as
// BENCH_engine_micro.json, via the shared bench_util.h writer). Two
// scenario families:
//
//   shuffle_keys_*   one shuffle hop as the engine pays for it: generate
//                    the record, encode it into a DATA frame through the
//                    registered kShuffleBenchRecord wire codec, decode,
//                    and fold it into the windowed per-key matcher state
//                    (AccumulateByFrameP). Sweeps key cardinality
//                    (1e4/1e5/1e6), state bytes per key, and Zipf skew.
//                    Each sample times one 256-item chunk ("chunk_ns");
//                    window flushes run inside the timed region, so frame
//                    eviction cost lands in the chunk tail.
//
//   imdg_load_1m     1M entries put into a replicated DataGrid, per-put
//                    latency ("latency_ns": each Put is timed). Mode
//                    "unreserved" is the naive bulk load — its p99.99 is
//                    dominated by incremental per-partition unordered_map
//                    rehashes; "reserved" pre-sizes stores via
//                    DataGrid::Reserve and flattens that tail. The
//                    pair is the committed before/after evidence for the
//                    IMDG scaling limit this workload exposed.
//
// --smoke shrinks item counts (same scenario names) for the CI lane.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/inbox_outbox.h"
#include "core/item.h"
#include "core/processors_window.h"
#include "imdg/grid.h"
#include "net/wire_format.h"
#include "shufflebench/generator.h"
#include "shufflebench/matcher.h"
#include "shufflebench/wire.h"

namespace {

using namespace jet;                // NOLINT
using namespace jet::core;          // NOLINT
using namespace jet::shufflebench;  // NOLINT

// One shuffle hop, chunk by chunk: generate -> wire encode -> wire decode
// -> windowed matcher accumulate. The histogram records the time of each
// 256-item chunk (the bench_engine_micro convention), so watermark
// flushes and state growth show up as tail chunks; it is not a per-event
// latency.
jet::bench::BenchScenario RunShuffleScenario(const std::string& scenario,
                                             const std::string& mode,
                                             GeneratorConfig config,
                                             int32_t state_bytes_per_key,
                                             Nanos window_size, int64_t items) {
  constexpr int kChunk = 256;
  constexpr int kFlushEveryChunks = 64;
  const int64_t chunks = items / kChunk;

  (void)RegisterShuffleBenchPayload();
  RecordGenerator gen(config);
  auto op = MatcherAggregate(state_bytes_per_key);
  AccumulateByFrameP<Record, MatcherState, int64_t> matcher(
      op, [](const Record& rec) { return rec.key; },
      WindowDef::Tumbling(window_size));

  Outbox outbox(1, 1 << 16);
  ProcessorContext ctx;
  ctx.outbox = &outbox;
  static ManualClock manual_clock(0);
  ctx.clock = &manual_clock;
  (void)matcher.Init(&ctx);

  net::FrameHeader header;
  header.edge_index = 0;
  header.from_node = 0;
  header.to_node = 1;

  Inbox inbox;
  Histogram chunk_nanos;
  const Clock& clock = WallClock::Global();
  int64_t seq = 0;
  Nanos ts = 0;
  int64_t measured_items = 0;
  Nanos measured_nanos = 0;

  for (int64_t c = -16; c < chunks; ++c) {  // negative chunks warm up
    const Nanos t0 = clock.Now();
    std::vector<Item> batch;
    batch.reserve(kChunk);
    for (int i = 0; i < kChunk; ++i) {
      Record rec = gen.MakeRecord(seq++);
      const uint64_t key_hash = RecordGenerator::KeyHash(rec);
      batch.push_back(Item::Data<Record>(std::move(rec), ts, key_hash));
      ts += 1000;  // 1 us of event time per record
    }
    BytesWriter w;
    if (!net::EncodeDataFrame(header, batch, &w).ok()) std::abort();
    auto decoded = net::DecodeFrame(w.buffer());
    if (!decoded.ok()) std::abort();
    for (Item& item : decoded->items) inbox.Add(std::move(item));
    matcher.Process(0, &inbox);
    if ((c & (kFlushEveryChunks - 1)) == 0) {
      (void)matcher.TryProcessWatermark(ts - kNanosPerMilli);
      outbox.bucket(0).clear();
    }
    const Nanos t1 = clock.Now();
    if (c >= 0) {
      chunk_nanos.Record(std::max<Nanos>(1, t1 - t0));
      measured_items += kChunk;
      measured_nanos += t1 - t0;
    }
  }

  return jet::bench::MakeScenario(scenario, mode, measured_items, measured_nanos,
                                  kChunk, chunk_nanos);
}

// Bulk-loads `entries` 8-byte-key / 64-byte-value entries into a
// 2-member replicated grid, timing every Put. `reserve` pre-sizes the
// per-partition stores first (DataGrid::Reserve) — the fix for the
// rehash-spike tail the unreserved mode measures.
jet::bench::BenchScenario RunImdgLoad(const std::string& scenario,
                                      const std::string& mode, int64_t entries,
                                      bool reserve) {
  imdg::DataGrid grid(/*backup_count=*/1, /*partition_count=*/271);
  (void)grid.AddMember(1);
  (void)grid.AddMember(2);
  const std::string map_name = "shufflebench_load";
  if (reserve) {
    if (!grid.Reserve(map_name, entries).ok()) std::abort();
  }

  Bytes value(64);
  for (size_t i = 0; i < value.size(); ++i) value[i] = static_cast<uint8_t>(i);

  Histogram latency;
  const Clock& clock = WallClock::Global();
  int64_t measured_items = 0;
  Nanos measured_nanos = 0;
  for (int64_t i = 0; i < entries; ++i) {
    BytesWriter key;
    key.WriteU64(HashU64(static_cast<uint64_t>(i)));
    const Nanos t0 = clock.Now();
    if (!grid.Put(map_name, key.buffer(), value).ok()) std::abort();
    const Nanos t1 = clock.Now();
    latency.Record(std::max<Nanos>(1, t1 - t0));
    ++measured_items;
    measured_nanos += t1 - t0;
  }

  return jet::bench::MakeScenario(scenario, mode, measured_items, measured_nanos,
                                  /*items_per_sample=*/1, latency);
}

int RunScenarios(const std::string& json_path, bool smoke) {
  const int64_t shuffle_items = smoke ? 64 * 1024 : 1024 * 1024;
  const int64_t load_entries = smoke ? 128 * 1024 : 1024 * 1024;
  const Nanos window = 50 * kNanosPerMilli;
  const Nanos heavy_window = 250 * kNanosPerMilli;

  auto cfg = [](int64_t cardinality, double zipf = 0.0) {
    GeneratorConfig c;
    c.key_cardinality = cardinality;
    c.payload_bytes = 64;
    c.zipf_exponent = zipf;
    return c;
  };

  std::vector<jet::bench::BenchScenario> results;
  results.push_back(RunShuffleScenario("shuffle_keys_1e4", "state_64B", cfg(10'000),
                                       64, window, shuffle_items));
  results.push_back(RunShuffleScenario("shuffle_keys_1e5", "state_64B", cfg(100'000),
                                       64, window, shuffle_items));
  results.push_back(RunShuffleScenario("shuffle_keys_1e6", "state_64B",
                                       cfg(1'000'000), 64, window, shuffle_items));
  results.push_back(RunShuffleScenario("shuffle_keys_1e5", "state_1KiB",
                                       cfg(100'000), 1024, window, shuffle_items));
  // The headline: 1M-key cardinality with 4 KiB of matcher state per key
  // and a wide window, so hundreds of thousands of heavy keys are live at
  // once.
  results.push_back(RunShuffleScenario("shuffle_keys_1e6", "state_4KiB",
                                       cfg(1'000'000), 4096, heavy_window,
                                       shuffle_items));
  results.push_back(RunShuffleScenario("shuffle_keys_1e6_zipf", "state_64B",
                                       cfg(1'000'000, 1.0), 64, window,
                                       shuffle_items));
  results.push_back(RunImdgLoad("imdg_load_1m", "unreserved", load_entries,
                                /*reserve=*/false));
  results.push_back(RunImdgLoad("imdg_load_1m", "reserved", load_entries,
                                /*reserve=*/true));

  if (!json_path.empty() &&
      !jet::bench::WriteBenchJson(json_path, "shufflebench", results)) {
    return 1;
  }
  for (const jet::bench::BenchScenario& s : results) jet::bench::PrintScenarioRow(s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_path = "BENCH_shufflebench.json";
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg == "--smoke") smoke = true;
  }
  return RunScenarios(json_path, smoke);
}
