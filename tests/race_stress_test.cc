// TSan race-stress suite (ISSUE 1): hammers the concurrency-sensitive
// primitives the paper's latency story rests on — the wait-free SPSC queue,
// the flow-control credit path, the metrics counters polled while workers
// run, the wire buffer, and the snapshot commit gate — with thread pairs sized
// to surface ordering bugs under `cmake --preset tsan && ctest --preset
// tsan`. The suite also runs (smaller but still useful) in uninstrumented
// builds, where the assertions check the functional invariants.
//
// The deliberate-misuse demos live at the bottom: a second concurrent
// producer on an SpscQueue is caught by the ThreadOwnershipGuard when
// JETSIM_DEBUG_CHECKS is on (death test), and reported by TSan when the
// guard is compiled out (DISABLED_ test, run via tools/check.sh --demo).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/debug_check.h"
#include "common/spsc_queue.h"
#include "core/dag.h"
#include "core/execution_service.h"
#include "core/job.h"
#include "core/processors_basic.h"
#include "core/tasklet.h"
#include "imdg/grid.h"
#include "imdg/ownership.h"
#include "net/exchange.h"
#include "net/flow_control.h"
#include "net/network.h"
#include "obs/event_loop_profiler.h"
#include "obs/metrics_registry.h"

namespace jet {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

// Instrumented runs pay 5-15x per memory access; keep wall time sane while
// still crossing the ring boundary hundreds of times.
constexpr int64_t kQueueItems = kTsan ? 60'000 : 500'000;

// ---------------------------------------------------------------------------
// SpscQueue: mixed single-push/batch producer vs mixed pop/drain/peek
// consumer. FIFO and completeness checked; TSan checks the ordering.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, SpscQueueMixedOperations) {
  SpscQueue<int64_t> q(128);
  std::thread producer([&q]() {
    int64_t next = 0;
    std::vector<int64_t> batch;
    while (next < kQueueItems) {
      if (next % 3 == 0) {
        batch.clear();
        for (int64_t v = next; v < std::min<int64_t>(next + 17, kQueueItems); ++v) {
          batch.push_back(v);
        }
        size_t pushed = q.PushBatch(batch.begin(), batch.end());
        next += static_cast<int64_t>(pushed);
      } else {
        int64_t v = next;
        if (q.TryPush(v)) ++next;
      }
    }
  });

  int64_t expected = 0;
  int64_t sum = 0;
  int mode = 0;
  while (expected < kQueueItems) {
    switch (mode++ % 3) {
      case 0: {
        int64_t out;
        if (q.TryPop(out)) {
          ASSERT_EQ(out, expected++);
          sum += out;
        }
        break;
      }
      case 1: {
        size_t n = q.DrainTo(
            [&](int64_t&& v) {
              ASSERT_EQ(v, expected++);
              sum += v;
            },
            23);
        (void)n;
        break;
      }
      default: {
        int64_t* front = q.Peek();
        if (front != nullptr) {
          ASSERT_EQ(*front, expected++);
          sum += *front;
          q.PopFront();
        }
        break;
      }
    }
  }
  producer.join();
  EXPECT_EQ(sum, kQueueItems * (kQueueItems - 1) / 2);
  EXPECT_TRUE(q.EmptyApprox());
}

// ---------------------------------------------------------------------------
// Flow control: the network thread applies acks while the sender thread
// gates sends on the advancing limit (§3.3). The receiver side sizes the
// window on its own thread.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, FlowControlCreditUpdates) {
  constexpr int64_t kTotal = kTsan ? 40'000 : 400'000;
  net::SenderFlowState flow;
  std::atomic<int64_t> receiver_processed{0};
  std::atomic<bool> stop_acker{false};

  // "Network" thread: turns receiver progress into window acks, including
  // occasional stale (lower) limits that OnAck must ignore monotonically.
  std::thread acker([&]() {
    net::ReceiveWindowController ctl;
    Nanos now = 0;
    while (!stop_acker.load(std::memory_order_acquire)) {
      now += ctl.options().ack_interval;
      int64_t limit = ctl.MaybeAck(now, receiver_processed.load(std::memory_order_acquire));
      if (limit >= 0) {
        flow.OnAck(limit);
        flow.OnAck(limit - 7);  // stale ack: must not move the limit back
      }
    }
    flow.OnAck(kTotal + 1);  // final credit so the sender always finishes
  });

  std::thread sender([&]() {
    int64_t seq = 0;
    while (seq < kTotal) {
      if (flow.MaySend(seq)) {
        // "Send" = receiver observes it after a beat.
        receiver_processed.store(seq + 1, std::memory_order_release);
        ++seq;
      } else {
        std::this_thread::yield();
      }
    }
  });

  // Poll the limit concurrently; it must only move forward.
  int64_t last_limit = 0;
  for (int i = 0; i < 10'000; ++i) {
    int64_t limit = flow.send_limit.load(std::memory_order_acquire);
    ASSERT_GE(limit, last_limit);
    last_limit = limit;
  }
  sender.join();
  stop_acker.store(true, std::memory_order_release);
  acker.join();
  EXPECT_EQ(receiver_processed.load(), kTotal);
  EXPECT_GE(flow.send_limit.load(std::memory_order_acquire), kTotal);
}

// ---------------------------------------------------------------------------
// Metrics counters: poll Job::Metrics() continuously while the job's worker
// threads run. Before the counters became single-writer atomics this was a
// plain int64 data race on every poll.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, MetricsPollingWhileJobRuns) {
  constexpr int64_t kCount = kTsan ? 20'000 : 100'000;
  core::Dag dag;
  core::VertexId source = dag.AddVertex(
      "source",
      [](const core::ProcessorMeta&) -> std::unique_ptr<core::Processor> {
        core::GeneratorSourceP<int64_t>::Options opt;
        opt.events_per_second = 1e9;
        opt.duration = kCount;
        opt.watermark_interval = 1;
        return std::make_unique<core::GeneratorSourceP<int64_t>>(
            [](int64_t seq) {
              return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq)));
            },
            opt);
      },
      1);
  auto collector = std::make_shared<core::SyncCollector<int64_t>>();
  core::VertexId sink = dag.AddVertex(
      "sink",
      [collector](const core::ProcessorMeta&) {
        return std::make_unique<core::CollectSinkP<int64_t>>(collector);
      },
      1);
  dag.AddEdge(source, sink);

  core::JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 2;
  auto job = core::Job::Create(params);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());

  int64_t last_total = 0;
  int64_t last_calls = 0;
  while (!(*job)->IsComplete()) {
    core::JobMetrics m = (*job)->Metrics();
    int64_t total = m.TotalItemsProcessed();
    int64_t calls = 0;
    for (const auto& t : m.tasklets) {
      calls += t.calls;
      ASSERT_GE(t.calls, t.idle_calls);
      ASSERT_GE(t.completed_snapshot_id, 0);
    }
    // Monotonic: single-writer counters may be stale but never go back.
    ASSERT_GE(total, last_total);
    ASSERT_GE(calls, last_calls);
    last_total = total;
    last_calls = calls;
  }
  ASSERT_TRUE((*job)->Join().ok());
  EXPECT_EQ(collector->Snapshot().size(), static_cast<size_t>(kCount));
}

// ---------------------------------------------------------------------------
// WireBuffer: the delivery thread pushes batches while the receiver tasklet
// thread drains.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, WireBufferPushDrain) {
  constexpr int64_t kBatches = kTsan ? 2'000 : 20'000;
  constexpr int64_t kBatchSize = 8;
  net::WireBuffer buffer;
  std::thread pusher([&]() {
    int64_t seq = 0;
    for (int64_t b = 0; b < kBatches; ++b) {
      std::vector<core::Item> batch;
      batch.reserve(kBatchSize);
      for (int64_t i = 0; i < kBatchSize; ++i) {
        batch.push_back(core::Item::Data<int64_t>(seq, /*event_time=*/seq));
        ++seq;
      }
      buffer.Push(std::move(batch));
    }
  });

  std::vector<core::Item> out;
  int64_t drained = 0;
  int64_t expected_seq = 0;
  while (drained < kBatches * kBatchSize) {
    drained += static_cast<int64_t>(buffer.DrainInto(&out, 13));
    for (const core::Item& item : out) {
      EXPECT_EQ(item.timestamp, expected_seq);  // FIFO preserved
      ++expected_seq;
    }
    out.clear();
  }
  pusher.join();
  EXPECT_EQ(buffer.Size(), 0u);
}

// ---------------------------------------------------------------------------
// SnapshotControl: coordinator/tasklet handshake. As in the engine, each
// participant publishes its own completed id (release) after writing its
// state, and the coordinator commits epoch N only once every completed id
// reaches N (acquire) — so it must see each participant's state for N.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, SnapshotControlHandshake) {
  constexpr int64_t kSnapshots = kTsan ? 300 : 3'000;
  constexpr int kTasklets = 4;
  core::SnapshotControl control;
  std::vector<int64_t> state(kTasklets, 0);  // written by its tasklet only
  std::vector<std::atomic<int64_t>> completed(kTasklets);
  std::vector<std::thread> tasklets;
  for (int t = 0; t < kTasklets; ++t) {
    tasklets.emplace_back([&, t]() {
      int64_t last_done = 0;
      while (last_done < kSnapshots) {
        int64_t requested = control.requested.load(std::memory_order_acquire);
        if (requested > last_done) {
          state[t] = requested;  // the "state entry" of this epoch
          last_done = requested;
          completed[t].store(requested, std::memory_order_release);
        }
      }
    });
  }
  auto all_completed = [&completed](int64_t id) {
    for (const auto& c : completed) {
      if (c.load(std::memory_order_acquire) < id) return false;
    }
    return true;
  };
  for (int64_t id = 1; id <= kSnapshots; ++id) {
    control.requested.store(id, std::memory_order_release);
    while (!all_completed(id)) std::this_thread::yield();
    for (int t = 0; t < kTasklets; ++t) ASSERT_EQ(state[t], id);
    control.committed.store(id, std::memory_order_release);
  }
  for (auto& t : tasklets) t.join();
  EXPECT_EQ(control.committed.load(std::memory_order_acquire), kSnapshots);
}

// ---------------------------------------------------------------------------
// ExecutionService: cancellation racing the worker loops.
// ---------------------------------------------------------------------------

class SpinTasklet final : public core::Tasklet {
 public:
  explicit SpinTasklet(std::string name) : name_(std::move(name)) {}
  core::TaskletProgress Call() override {
    work_.fetch_add(1, std::memory_order_relaxed);
    return {true, false};  // endless until cancelled
  }
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> work_{0};
};

TEST(RaceStressTest, ExecutionServiceCancelRace) {
  for (int round = 0; round < (kTsan ? 5 : 20); ++round) {
    SpinTasklet a("a"), b("b"), c("c");
    core::ExecutionService service(2);
    ASSERT_TRUE(service.Start({&a, &b, &c}).ok());
    std::thread canceller([&service]() { service.Cancel(); });
    canceller.join();
    ASSERT_TRUE(service.AwaitCompletion().ok());
    EXPECT_TRUE(service.IsComplete());
  }
}

// ---------------------------------------------------------------------------
// DataGrid listener fast path (PR 10 satellite audit): Put skips the
// listener_mutex_ acquisition entirely when the acquire load of
// listener_count_ reads 0. The claim being verified: registrations are
// inserted under listener_mutex_ BEFORE the release count store, and the
// registry is only ever read back under the same mutex — so a concurrent
// Put can at worst miss a listener whose registration it was never ordered
// after, and can never observe a torn registration. TSan checks the
// ordering while writers hammer Put against add/remove churn; the
// functional half asserts a listener registered before a Put is notified.
// ---------------------------------------------------------------------------

TEST(RaceStressTest, GridListenerChurnVsPutFastPath) {
  constexpr int64_t kPutsPerWriter = kTsan ? 5'000 : 40'000;
  constexpr int kWriters = 2;
  imdg::DataGrid grid(/*backup_count=*/0);
  ASSERT_TRUE(grid.AddMember(0).ok());

  std::atomic<bool> stop_churn{false};
  std::atomic<int64_t> notified{0};
  std::atomic<int64_t> put_failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&grid, &put_failures, w]() {
      for (int64_t i = 0; i < kPutsPerWriter; ++i) {
        const Bytes key = {static_cast<uint8_t>(w), static_cast<uint8_t>(i),
                           static_cast<uint8_t>(i >> 8)};
        if (!grid.Put("races", key, Bytes{1}).ok()) {
          put_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Churn: registrations and removals racing the writers' fast-path loads.
  // A torn registration would surface as TSan findings on the std::function
  // state the callback copy reads, or as a crash invoking a half-built
  // callback. Note a listener may legitimately run concurrently on both
  // writer threads (Put invokes copies outside every lock), so the callback
  // touches only atomic state.
  std::thread churn([&grid, &stop_churn, &notified]() {
    while (!stop_churn.load(std::memory_order_acquire)) {
      int64_t id = grid.AddEntryListener(
          "races", [&notified](const Bytes&, const Bytes&) {
            notified.fetch_add(1, std::memory_order_relaxed);
          });
      std::this_thread::yield();
      grid.RemoveEntryListener(id);
    }
  });

  for (auto& t : writers) t.join();
  stop_churn.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(put_failures.load(), 0);

  // Deterministic half: registered-before-Put must be notified, and the
  // count gate must not leak notifications after removal drains.
  std::atomic<int64_t> final_hits{0};
  int64_t id = grid.AddEntryListener(
      "races", [&final_hits](const Bytes&, const Bytes&) {
        final_hits.fetch_add(1, std::memory_order_relaxed);
      });
  ASSERT_TRUE(grid.Put("races", Bytes{0xFF}, Bytes{2}).ok());
  EXPECT_EQ(final_hits.load(), 1);
  grid.RemoveEntryListener(id);
  ASSERT_TRUE(grid.Put("races", Bytes{0xFE}, Bytes{3}).ok());
  EXPECT_EQ(final_hits.load(), 1);
}

// ---------------------------------------------------------------------------
// Single-writer invariant under rebalance storms (PR 10 tentpole): owned
// partition handles do plain, lock-free map mutations; the only thing
// keeping them race-free across scheduler migrations is the 3-step mailbox
// handoff (PrepareWorkerHandoff on the source thread, mailbox mutex,
// OnWorkerAdopted + first Call on the destination). This storm migrates
// owned-writer tasklets continuously — with InjectStall widening the
// windows — while every Call mutates grid state through the handles. TSan
// verifies the handoff edges; the assertions verify ownership followed the
// tasklet and no write was lost.
// ---------------------------------------------------------------------------

// Writes through owned handles on every call; carries its claims across
// worker migrations exactly like the keyed-aggregation processors do.
class OwnedWriterTasklet final : public core::Tasklet {
 public:
  OwnedWriterTasklet(std::string name, imdg::DataGrid* grid, int64_t tasklet_id,
                     std::vector<imdg::PartitionId> partitions,
                     const std::atomic<bool>* stop)
      : name_(std::move(name)), grid_(grid), tasklet_id_(tasklet_id),
        partitions_(std::move(partitions)), stop_(stop) {}

  Status Init() override {
    for (imdg::PartitionId p : partitions_) {
      JET_RETURN_IF_ERROR(grid_->ownership().Claim(p, -1, tasklet_id_));
      auto handle = grid_->AcquireOwnedPartition("storm", p, tasklet_id_);
      JET_RETURN_IF_ERROR(handle.status());
      handles_.push_back(std::move(handle).value());
    }
    return Status::OK();
  }

  core::TaskletProgress Call() override {
    // Oscillating weight (phase-shifted per tasklet): equal-weight tasklets
    // would let the rebalancer converge and stop migrating; shifting which
    // tasklet is heavy every 64 calls keeps the storm blowing.
    const int64_t phase =
        ((writes_.load(std::memory_order_relaxed) >> 6) + tasklet_id_) & 3;
    const Nanos spin_until =
        WallClock::Global().Now() + phase * 50 * kNanosPerMicro;
    while (WallClock::Global().Now() < spin_until) {
    }
    const Bytes key = {static_cast<uint8_t>(tasklet_id_)};
    for (auto& handle : handles_) {
      Status s = handle->Update(key, [](Bytes* v) {
        if (v->empty()) v->assign(8, 0);
        // 64-bit little-endian increment: the final value counts writes.
        for (size_t i = 0; i < v->size(); ++i) {
          if (++(*v)[i] != 0) break;
        }
      });
      if (!s.ok()) {
        error_ = s;
        return {false, true};
      }
    }
    const int64_t done = writes_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // The single-writer check proper: read back through the handle — with
    // exactly one writer the counter must equal this tasklet's own write
    // count, every time, no matter how many workers the tasklet crossed.
    // A concurrent second writer (or a lost write across a handoff) breaks
    // the equality; TSan would additionally flag the plain map access.
    for (auto& handle : handles_) {
      std::optional<Bytes> v = handle->Get(key);
      int64_t counted = 0;
      if (v.has_value()) {
        for (size_t i = 0; i < 8 && i < v->size(); ++i) {
          counted |= static_cast<int64_t>((*v)[i]) << (8 * i);
        }
      }
      if (counted != done) {
        error_ = InternalError("partition " + std::to_string(handle->partition()) +
                               " counted " + std::to_string(counted) +
                               " writes, owner performed " + std::to_string(done));
        return {false, true};
      }
    }
    return {true, stop_->load(std::memory_order_acquire)};
  }

  void PrepareWorkerHandoff() override {
    for (auto& handle : handles_) handle->ReleaseThreadBinding();
  }

  void OnWorkerAdopted(int32_t worker_index) override {
    adoptions_.fetch_add(1, std::memory_order_acq_rel);
    for (imdg::PartitionId p : partitions_) {
      (void)grid_->ownership().Transfer(p, tasklet_id_, worker_index);
    }
  }

  void ReleaseClaims() {
    handles_.clear();
    for (imdg::PartitionId p : partitions_) {
      (void)grid_->ownership().Release(p, tasklet_id_);
    }
  }

  int64_t writes() const { return writes_.load(std::memory_order_acquire); }
  int64_t adoptions() const { return adoptions_.load(std::memory_order_acquire); }
  const Status& error() const { return error_; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  imdg::DataGrid* grid_;
  int64_t tasklet_id_;
  std::vector<imdg::PartitionId> partitions_;
  const std::atomic<bool>* stop_;
  std::vector<std::unique_ptr<imdg::OwnedPartitionHandle>> handles_;
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> adoptions_{0};
  Status error_;
};

TEST(RaceStressTest, SingleWriterOwnedPartitionsSurviveRebalanceStorm) {
  constexpr int kTasklets = 4;
  constexpr int kPartitionsEach = 2;
  const Nanos kRunFor = (kTsan ? 400 : 800) * kNanosPerMilli;

  imdg::DataGrid grid(/*backup_count=*/0, /*partition_count=*/32);
  ASSERT_TRUE(grid.AddMember(0).ok());

  std::atomic<bool> stop{false};
  obs::MetricsRegistry registry;
  obs::EventLoopProfiler profiler(&registry);
  std::vector<std::unique_ptr<OwnedWriterTasklet>> tasklets;
  std::vector<core::Tasklet*> roster;
  for (int t = 0; t < kTasklets; ++t) {
    std::vector<imdg::PartitionId> mine;
    for (int p = 0; p < kPartitionsEach; ++p) {
      mine.push_back(static_cast<imdg::PartitionId>(t * kPartitionsEach + p));
    }
    tasklets.push_back(std::make_unique<OwnedWriterTasklet>(
        "owned" + std::to_string(t), &grid, t, std::move(mine), &stop));
    roster.push_back(tasklets.back().get());
  }

  core::ExecutionService::Options options;
  options.rebalance_interval = 0;  // storm driven manually below
  options.skew_threshold = 1.01;   // migrate on the slightest imbalance
  options.min_hot_load = 1;
  core::ExecutionService service(2, &profiler, options);
  ASSERT_TRUE(service.Start(roster).ok());

  // The storm: continuous rebalance passes with periodic stalls widening
  // the handoff windows.
  const Nanos until = WallClock::Global().Now() + kRunFor;
  int pass = 0;
  while (WallClock::Global().Now() < until) {
    service.TriggerRebalance();
    if (++pass % 16 == 0) service.InjectStall(kNanosPerMilli / 2);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop.store(true, std::memory_order_release);
  ASSERT_TRUE(service.AwaitCompletion().ok());

  int64_t total_adoptions = 0;
  for (auto& t : tasklets) {
    ASSERT_TRUE(t->error().ok()) << t->name() << ": " << t->error().ToString();
    EXPECT_GT(t->writes(), 0) << t->name();
    total_adoptions += t->adoptions();
  }
  EXPECT_GT(total_adoptions, 0) << "storm never migrated an owned writer";
  EXPECT_GT(grid.ownership().transfers(), 0);
  EXPECT_EQ(grid.ownership().owned_count(), kTasklets * kPartitionsEach);
  for (auto& t : tasklets) t->ReleaseClaims();
  EXPECT_EQ(grid.ownership().owned_count(), 0);
}

// ---------------------------------------------------------------------------
// In-place inbox across worker handoffs: the tasklet's inbox points into
// its inbound ring between calls, so the ring slots, the consumer role and
// the pending release all move to the next worker with the tasklet. TSan
// checks the handoff edges; the assertions check that every item arrives
// exactly once, in order.
// ---------------------------------------------------------------------------

// Takes at most 5 items per call, so the inbox nearly always still holds
// part of a run (in the ring) when the tasklet changes worker.
class NibblingSinkP final : public core::Processor {
 public:
  explicit NibblingSinkP(std::vector<int64_t>* seen) : seen_(seen) {}

  void Process(int, core::Inbox* inbox) override {
    for (int n = 0; n < 5 && !inbox->Empty(); ++n) {
      seen_->push_back(inbox->Poll().payload.As<int64_t>());
    }
    left_in_inbox_ = inbox->Size();
  }

  size_t left_in_inbox() const { return left_in_inbox_; }

 private:
  std::vector<int64_t>* seen_;
  size_t left_in_inbox_ = 0;
};

TEST(RaceStressTest, InPlaceInboxDeliversEveryItemOnceAcrossHandoffs) {
  const int64_t kItems = kTsan ? 20'000 : 200'000;
  auto queue = std::make_shared<core::ItemQueue>(64);
  std::vector<int64_t> seen;  // touched only by the tasklet's current worker
  auto sink = std::make_unique<NibblingSinkP>(&seen);
  NibblingSinkP* nibbler = sink.get();
  ManualClock clock(0);
  core::ProcessorContext context;
  context.clock = &clock;
  std::vector<core::InboundStream> inputs(1);
  inputs[0].queues.push_back(core::InboundQueue{queue});
  core::ProcessorTasklet tasklet("nibbler", std::move(sink), context, std::move(inputs), {},
                                 core::ProcessingGuarantee::kNone, nullptr);
  ASSERT_TRUE(tasklet.Init().ok());
  tasklet.PrepareWorkerHandoff();  // the first worker binds the roles afresh

  std::thread producer([&queue, kItems]() {
    for (int64_t i = 0; i < kItems;) {
      if (queue->TryPush(core::Item::Data<int64_t>(i, 0))) ++i;
    }
    while (!queue->TryPush(core::Item::Done())) {
    }
  });

  // Two workers hand the tasklet back and forth after 1-7 calls each; the
  // mutex orders one worker's PrepareWorkerHandoff before the other's next
  // Call, as the scheduler's mailbox does.
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  bool finished = false;
  int64_t handoffs = 0;
  int64_t handoffs_holding_a_run = 0;
  auto worker = [&](int me) {
    for (;;) {
      int64_t calls = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&]() { return turn == me || finished; });
        if (finished) return;
        calls = 1 + handoffs % 7;
      }
      bool done = false;
      for (int64_t c = 0; c < calls && !done; ++c) done = tasklet.Call().done;
      const bool holding = nibbler->left_in_inbox() > 0;
      tasklet.PrepareWorkerHandoff();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++handoffs;
        if (holding) ++handoffs_holding_a_run;
        turn = 1 - me;
        finished = done;
      }
      cv.notify_all();
    }
  };
  std::thread w0(worker, 0);
  std::thread w1(worker, 1);
  w0.join();
  w1.join();
  producer.join();

  ASSERT_EQ(seen.size(), static_cast<size_t>(kItems));
  for (int64_t i = 0; i < kItems; ++i) ASSERT_EQ(seen[static_cast<size_t>(i)], i);
  EXPECT_TRUE(queue->EmptyApprox());
  EXPECT_GT(handoffs_holding_a_run, 0) << "no handoff happened mid-run";
  EXPECT_EQ(tasklet.items_processed(), kItems);
}

// An at-least-once barrier does not stop the refill, so right after popping
// one the tasklet looks at the queue again, often just as the producer
// pushes the data item behind it. That item must reach the processor, not
// be taken for a control item and dropped.
TEST(RaceStressTest, DataPushedRightAfterAnAtLeastOnceBarrierIsNotLost) {
  const int64_t kItems = kTsan ? 20'000 : 200'000;
  auto queue = std::make_shared<core::ItemQueue>(64);
  std::vector<int64_t> seen;
  ManualClock clock(0);
  core::ProcessorContext context;
  context.clock = &clock;
  std::vector<core::InboundStream> inputs(1);
  inputs[0].queues.push_back(core::InboundQueue{queue});
  core::ProcessorTasklet tasklet("sink", std::make_unique<NibblingSinkP>(&seen), context,
                                 std::move(inputs), {}, core::ProcessingGuarantee::kAtLeastOnce,
                                 nullptr);
  ASSERT_TRUE(tasklet.Init().ok());

  std::thread producer([&queue, kItems]() {
    auto push = [&queue](core::Item item) {
      while (!queue->TryPush(std::move(item))) {
      }
    };
    for (int64_t i = 0; i < kItems; ++i) {
      push(core::Item::BarrierFor(1));
      // Push the data item just as the tasklet takes the barrier.
      while (!queue->EmptyApprox()) {
      }
      push(core::Item::Data<int64_t>(i, 0));
    }
    push(core::Item::Done());
  });
  while (!tasklet.Call().done) {
  }
  producer.join();

  ASSERT_EQ(static_cast<int64_t>(seen.size()), kItems);
  for (int64_t i = 0; i < kItems; ++i) ASSERT_EQ(seen[static_cast<size_t>(i)], i);
  EXPECT_TRUE(queue->EmptyApprox());
}

// A source that offers sequence numbers to every edge, at most 50 per call
// and only while the outbox has room, with a watermark after every 37th so
// the bucket path interleaves with in-place emission.
class CountingSourceP final : public core::Processor {
 public:
  explicit CountingSourceP(int64_t count) : count_(count) {}

  bool Complete() override {
    core::Outbox* outbox = ctx()->outbox;
    for (int n = 0; n < 50 && next_ < count_ && outbox->HasRoom(); ++n) {
      outbox->OfferToAll(core::Item::Data<int64_t>(next_, next_));
      if (++next_ % 37 == 0) outbox->OfferToAll(core::Item::WatermarkAt(next_));
    }
    return next_ >= count_;
  }

 private:
  int64_t count_;
  int64_t next_ = 0;
};

// A source tasklet building its items in place in two unicast rings is
// handed between two workers every few calls while each ring's consumer
// thread pops: every item arrives exactly once, in order within each ring.
TEST(RaceStressTest, InPlaceOutboxDeliversEveryItemOnceAcrossHandoffs) {
  const int64_t kItems = kTsan ? 20'000 : 200'000;
  std::vector<core::ItemQueuePtr> queues = {std::make_shared<core::ItemQueue>(64),
                                            std::make_shared<core::ItemQueue>(64)};
  ManualClock clock(0);
  core::ProcessorContext context;
  context.clock = &clock;
  context.config.outbox_capacity = 16;
  std::vector<core::OutboundCollector> collectors;
  collectors.emplace_back(core::RoutingPolicy::kUnicast, queues,
                          std::vector<core::RemoteSink>{}, 2, 1, 0);
  core::ProcessorTasklet tasklet("source", std::make_unique<CountingSourceP>(kItems), context,
                                 {}, std::move(collectors), core::ProcessingGuarantee::kNone,
                                 nullptr);
  ASSERT_TRUE(tasklet.Init().ok());
  tasklet.PrepareWorkerHandoff();  // the first worker binds the roles afresh

  std::vector<std::vector<int64_t>> seen(queues.size());
  std::vector<std::thread> consumers;
  for (size_t q = 0; q < queues.size(); ++q) {
    consumers.emplace_back([&queue = *queues[q], &out = seen[q]]() {
      core::Item item;
      for (;;) {
        if (!queue.TryPop(item)) continue;
        if (item.IsDone()) return;
        if (item.IsData()) out.push_back(item.payload.As<int64_t>());
      }
    });
  }

  // Two workers hand the tasklet back and forth after 1-7 calls each, the
  // mutex standing in for the scheduler's mailbox.
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  bool finished = false;
  int64_t handoffs = 0;
  auto worker = [&](int me) {
    for (;;) {
      int64_t calls = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&]() { return turn == me || finished; });
        if (finished) return;
        calls = 1 + handoffs % 7;
      }
      bool done = false;
      for (int64_t c = 0; c < calls && !done; ++c) done = tasklet.Call().done;
      tasklet.PrepareWorkerHandoff();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++handoffs;
        turn = 1 - me;
        finished = done;
      }
      cv.notify_all();
    }
  };
  std::thread w0(worker, 0);
  std::thread w1(worker, 1);
  w0.join();
  w1.join();
  for (auto& c : consumers) c.join();

  std::vector<int64_t> all;
  for (const auto& ring : seen) {
    EXPECT_FALSE(ring.empty());
    for (size_t i = 1; i < ring.size(); ++i) ASSERT_LT(ring[i - 1], ring[i]);
    all.insert(all.end(), ring.begin(), ring.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kItems));
  for (int64_t i = 0; i < kItems; ++i) ASSERT_EQ(all[static_cast<size_t>(i)], i);
  EXPECT_GT(handoffs, 20);
}

// ---------------------------------------------------------------------------
// Deliberate misuse demos (ISSUE 1 acceptance): a second concurrent
// producer on an SpscQueue.
// ---------------------------------------------------------------------------

void RunTwoProducers(SpscQueue<int64_t>* q) {
  std::atomic<bool> go{false};
  auto produce = [q, &go]() {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int64_t i = 0; i < 50'000; ++i) {
      int64_t v = i;
      (void)q->TryPush(v);
      if ((i & 1023) == 0) {
        int64_t out;
        while (q->SizeApprox() > 64 && q->TryPop(out)) {
        }
      }
    }
  };
  std::thread p1(produce);
  std::thread p2(produce);
  go.store(true, std::memory_order_release);
  p1.join();
  p2.join();
}

#if JETSIM_DEBUG_CHECKS

// With debug checks on, the ownership guard aborts the instant the second
// producer thread touches the queue.
TEST(SpscQueueOwnershipDeathTest, SecondProducerCaughtByGuard) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SpscQueue<int64_t> q(128);
  ASSERT_DEATH(RunTwoProducers(&q), "ownership.*SpscQueue producer");
}

#else

// With the guard compiled out, the same misuse is a raw data race on the
// head index / slots; ThreadSanitizer reports it. Disabled by default so
// the clean `ctest --preset tsan` run stays green — tools/check.sh --demo
// runs it explicitly and asserts that TSan complains.
TEST(RaceDemo, DISABLED_TwoProducersRaceUnderTsan) {
  SpscQueue<int64_t> q(128);
  RunTwoProducers(&q);
  SUCCEED() << "if TSan is active this test should have died before here";
}

#endif  // JETSIM_DEBUG_CHECKS

}  // namespace
}  // namespace jet
