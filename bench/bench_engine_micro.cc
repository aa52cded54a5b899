// Microbenchmarks of the real engine's building blocks (google-benchmark).
//
// These back the paper's systems claims at component level: wait-free SPSC
// queues (§3.2), cheap partition routing (§4.1), O(1) latency recording,
// and the per-event cost of the windowed accumulate stage that bounds the
// "2M events per second per CPU-core" capacity (§4.6).
// Run with --json[=path] to skip google-benchmark and emit the
// machine-readable scenarios (BENCH_engine_micro.json): throughput and
// p50/p99/p99.99 of the time per 256-item chunk for the shuffle-heavy and
// unicast exchange hops and for contended keyed aggregation. CI parses the
// file and guards the exchange throughput against the committed baseline.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/spsc_queue.h"
#include "core/aggregate.h"
#include "core/inbox_outbox.h"
#include "core/item.h"
#include "core/processors_window.h"
#include "imdg/grid.h"
#include "imdg/partition_table.h"
#include "net/exchange.h"

namespace {

using namespace jet;        // NOLINT
using namespace jet::core;  // NOLINT

void BM_SpscQueuePushPop(benchmark::State& state) {
  SpscQueue<int64_t> queue(1024);
  int64_t v = 0;
  for (auto _ : state) {
    queue.TryPush(v);
    int64_t out;
    queue.TryPop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueuePushPop);

void BM_SpscQueueBatch64(benchmark::State& state) {
  SpscQueue<int64_t> queue(1024);
  std::vector<int64_t> batch(64);
  for (auto _ : state) {
    queue.PushBatch(batch.begin(), batch.end());
    size_t drained = queue.DrainTo([](int64_t&&) {}, 64);
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpscQueueBatch64);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) % 100'000'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HashU64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = HashU64(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashU64);

void BM_ItemBoxing(benchmark::State& state) {
  for (auto _ : state) {
    Item item = Item::Data<int64_t>(42, 1000, 7);
    benchmark::DoNotOptimize(item);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItemBoxing);

void BM_PartitionForHash(benchmark::State& state) {
  uint64_t x = 99;
  for (auto _ : state) {
    auto p = imdg::PartitionForHash(x, imdg::kDefaultPartitionCount);
    benchmark::DoNotOptimize(p);
    ++x;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionForHash);

void BM_GridPut(benchmark::State& state) {
  imdg::DataGrid grid(/*backup_count=*/1);
  (void)grid.AddMember(0);
  (void)grid.AddMember(1);
  Bytes key(8), value(64);
  uint64_t k = 0;
  for (auto _ : state) {
    std::memcpy(key.data(), &k, 8);
    benchmark::DoNotOptimize(grid.Put("bench", key, value));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridPut);

void BM_GridGet(benchmark::State& state) {
  imdg::DataGrid grid(/*backup_count=*/1);
  (void)grid.AddMember(0);
  (void)grid.AddMember(1);
  Bytes value(64);
  for (uint64_t k = 0; k < 10'000; ++k) {
    Bytes key(8);
    std::memcpy(key.data(), &k, 8);
    (void)grid.Put("bench", key, value);
  }
  uint64_t k = 0;
  Bytes key(8);
  for (auto _ : state) {
    uint64_t lookup = k % 10'000;
    std::memcpy(key.data(), &lookup, 8);
    benchmark::DoNotOptimize(grid.Get("bench", key));
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridGet);

// Per-event cost of the keyed windowed accumulation (stage 1) — the
// dominant per-event work of Q5.
void BM_WindowAccumulate(benchmark::State& state) {
  const int64_t keys = state.range(0);
  auto op = CountingAggregate<int64_t>();
  AccumulateByFrameP<int64_t, int64_t, int64_t> processor(
      op, [](const int64_t& v) { return static_cast<uint64_t>(v); },
      WindowDef::Sliding(100 * kNanosPerMilli, 10 * kNanosPerMilli));
  Outbox outbox(1, 4096);
  ProcessorContext ctx;
  ctx.outbox = &outbox;
  static ManualClock clock(0);
  ctx.clock = &clock;
  (void)processor.Init(&ctx);

  Inbox inbox;
  int64_t ts = 0;
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    while (!inbox.Empty()) inbox.RemoveFront();
    for (int i = 0; i < 256; ++i) {
      auto key = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(keys)));
      inbox.Add(Item::Data<int64_t>(key, ts, HashU64(static_cast<uint64_t>(key))));
      ts += 1000;
    }
    state.ResumeTiming();
    processor.Process(0, &inbox);
    // Periodically flush closed frames so state stays bounded.
    if ((ts / 1000) % (1 << 16) == 0) {
      (void)processor.TryProcessWatermark(ts - 20 * kNanosPerMilli);
      outbox.bucket(0).clear();
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WindowAccumulate)->Arg(100)->Arg(10'000)->Arg(1'000'000);

// ---------------------------------------------------------------------------
// JSON mode: the exchange-path scenarios behind BENCH_engine_micro.json.
// ---------------------------------------------------------------------------

// One exchange hop as the engine runs it: producer SPSC queue -> tasklet
// inbox -> wire frame -> receiver staging -> outbox fan-out, through the
// bulk paths of the exchange (the inbox consumes its run in place in the
// ring: SpscQueue::FrontRun, Inbox::DrainTo, SpscQueue::Release,
// whole-frame WireBuffer steal, move-based OfferToAll). The histogram
// records the time of each 256-item chunk, so its tail shows jitter
// between chunks, not the latency of one item.
jet::bench::BenchScenario RunExchangeHop(const std::string& scenario, int32_t fan_out,
                                         int64_t chunks) {
  constexpr int kChunk = 256;
  SpscQueue<Item> queue(1024);
  Inbox inbox;
  Outbox outbox(fan_out, /*bucket_capacity=*/kChunk * 2);
  net::WireBuffer wire;
  Histogram chunk_nanos;
  const Clock& clock = WallClock::Global();
  int64_t ts = 0;
  int64_t measured_items = 0;
  Nanos measured_nanos = 0;

  for (int64_t c = -16; c < chunks; ++c) {  // negative chunks warm up
    const Nanos t0 = clock.Now();
    for (int i = 0; i < kChunk; ++i) {
      Item item = Item::Data<int64_t>(ts, ts, HashU64(static_cast<uint64_t>(ts)));
      (void)queue.TryPush(item);
      ++ts;
    }
    std::span<Item> run = queue.FrontRun([](const Item& it) { return it.IsData(); }, kChunk);
    inbox.AttachRun(run.data(), run.data() + run.size());
    std::vector<Item> frame;
    frame.reserve(kChunk);
    (void)inbox.DrainTo(&frame, kChunk);
    queue.Release(inbox.TakeConsumedRun());
    wire.Push(std::move(frame));
    std::vector<Item> staged;
    (void)wire.DrainInto(&staged, kChunk);
    for (Item& item : staged) outbox.OfferToAll(std::move(item));
    for (int32_t b = 0; b < fan_out; ++b) outbox.bucket(b).clear();
    const Nanos t1 = clock.Now();
    if (c >= 0) {
      chunk_nanos.Record(std::max<Nanos>(1, t1 - t0));
      measured_items += kChunk;
      measured_nanos += t1 - t0;
    }
  }

  return jet::bench::MakeScenario(scenario, "batched", measured_items, measured_nanos,
                                  kChunk, chunk_nanos);
}

// Contended keyed aggregation against the IMDG (PR 10): four "processor"
// threads each maintain counters for a disjoint set of partitions, the
// exact shape the single-writer ownership model targets. `locked` runs the
// legacy access path — every read-modify-write is a Get plus a Put, each
// taking the layout rwlock shared plus the partition mutex, so the four
// threads contend on the rwlock reader count and the mutex cache lines
// even though their key sets are disjoint. `owned` claims the partitions
// and goes through OwnedPartitionHandle::Update: zero lock operations per
// event. The time of each 256-item chunk is recorded per thread and the
// histograms merged, so the chunk tail captures the cross-thread jitter
// the locks introduce.
jet::bench::BenchScenario RunContendedKeyedAggregation(bool owned, int64_t chunks) {
  constexpr int kThreads = 4;
  constexpr int kChunk = 256;
  constexpr int kKeysPerThread = 64;
  imdg::DataGrid grid(/*backup_count=*/0, /*partition_count=*/64);
  (void)grid.AddMember(0);

  // Deal keys out by home partition so each thread's working set lives in
  // partitions no other thread touches (keyed aggregation: one writer per
  // key group).
  std::vector<std::vector<std::pair<Bytes, imdg::PartitionId>>> keys(kThreads);
  uint64_t probe = 1;
  while (true) {
    Bytes key(8);
    std::memcpy(key.data(), &probe, 8);
    const imdg::PartitionId p = grid.PartitionOf(key);
    auto& mine = keys[p % kThreads];
    if (mine.size() < kKeysPerThread) mine.emplace_back(std::move(key), p);
    bool done = true;
    for (const auto& k : keys) done = done && k.size() == kKeysPerThread;
    if (done) break;
    ++probe;
  }

  std::vector<Histogram> chunk_nanos(kThreads);
  std::vector<Nanos> elapsed(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const Clock& clock = WallClock::Global();
      std::vector<std::unique_ptr<imdg::OwnedPartitionHandle>> handles;
      // partition -> handle index, valid only in owned mode.
      std::vector<int> handle_of(64, -1);
      if (owned) {
        for (const auto& [key, p] : keys[t]) {
          if (handle_of[p] >= 0) continue;
          (void)grid.ownership().Claim(p, t, /*tasklet=*/t);
          auto h = grid.AcquireOwnedPartition("agg", p, t);
          handle_of[p] = static_cast<int>(handles.size());
          handles.push_back(std::move(h).value());
        }
      }
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int64_t c = -16; c < chunks; ++c) {  // negative chunks warm up
        const Nanos t0 = clock.Now();
        for (int i = 0; i < kChunk; ++i) {
          const auto& [key, p] =
              keys[t][rng.NextBounded(kKeysPerThread)];
          if (owned) {
            (void)handles[handle_of[p]]->Update(key, [](Bytes* v) {
              if (v->size() != 8) v->assign(8, 0);
              uint64_t n;
              std::memcpy(&n, v->data(), 8);
              ++n;
              std::memcpy(v->data(), &n, 8);
            });
          } else {
            auto current = grid.Get("agg", key);
            uint64_t n = 0;
            if (current.ok() && current.value().has_value()) {
              std::memcpy(&n, current.value()->data(), 8);
            }
            ++n;
            Bytes value(8);
            std::memcpy(value.data(), &n, 8);
            (void)grid.Put("agg", key, value);
          }
        }
        const Nanos t1 = clock.Now();
        if (c >= 0) {
          chunk_nanos[t].Record(std::max<Nanos>(1, t1 - t0));
          elapsed[t] += t1 - t0;
        }
      }
      if (owned) {
        handles.clear();
        for (const auto& [key, p] : keys[t]) {
          if (handle_of[p] >= 0) {
            handle_of[p] = -1;
            (void)grid.ownership().Release(p, t);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  Histogram merged;
  Nanos total_nanos = 0;
  for (int t = 0; t < kThreads; ++t) {
    (void)merged.Merge(chunk_nanos[t]);
    total_nanos = std::max(total_nanos, elapsed[t]);
  }
  const int64_t items = chunks * kChunk * kThreads;
  return jet::bench::MakeScenario("contended_keyed_aggregation",
                                  owned ? "owned" : "locked", items,
                                  total_nanos, kChunk, merged);
}

int RunJsonScenarios(const std::string& path) {
  constexpr int64_t kChunks = 4096;  // 1M items per scenario run
  std::vector<jet::bench::BenchScenario> results;
  // Shuffle-heavy hop: broadcast fan-out of 4 consumers.
  results.push_back(RunExchangeHop("shuffle_exchange", 4, kChunks));
  // Unicast hop: single consumer, where OfferToAll degenerates to a pure
  // move.
  results.push_back(RunExchangeHop("unicast_exchange", 1, kChunks));
  // Keyed aggregation under cross-thread lock contention vs single-writer
  // owned partition access (§4.1 ownership model).
  results.push_back(RunContendedKeyedAggregation(/*owned=*/false, kChunks / 4));
  results.push_back(RunContendedKeyedAggregation(/*owned=*/true, kChunks / 4));

  if (!jet::bench::WriteBenchJson(path, "engine_micro", results)) return 1;
  for (const jet::bench::BenchScenario& r : results) jet::bench::PrintScenarioRow(r);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_path = "BENCH_engine_micro.json";
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  if (!json_path.empty()) return RunJsonScenarios(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
