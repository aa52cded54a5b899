#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/idle_strategy.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/spsc_queue.h"
#include "common/status.h"

namespace jet {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::vector<Status> statuses = {
      InvalidArgumentError("x"), NotFoundError("x"),    AlreadyExistsError("x"),
      FailedPreconditionError("x"), OutOfRangeError("x"), UnimplementedError("x"),
      InternalError("x"),        UnavailableError("x"), AbortedError("x"),
      ResourceExhaustedError("x"), CancelledError("x"), TimedOutError("x")};
  std::vector<StatusCode> codes;
  for (const auto& s : statuses) {
    EXPECT_FALSE(s.ok());
    codes.push_back(s.code());
  }
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::unique(codes.begin(), codes.end()), codes.end());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0);
  EXPECT_EQ(h.Mean(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1'000'000);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 1'000'000);
  // Bucket rounding error is bounded by ~1/64 relative.
  EXPECT_NEAR(static_cast<double>(h.ValueAtQuantile(0.5)), 1e6, 1e6 / 64 + 1);
}

TEST(HistogramTest, MergePreservesCountAndSum) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.Record(i * 1000);
  for (int i = 1; i <= 50; ++i) b.Record(i * 2000);
  double mean_combined =
      (a.Mean() * static_cast<double>(a.count()) + b.Mean() * static_cast<double>(b.count())) /
      150.0;
  a.Merge(b);
  EXPECT_EQ(a.count(), 150);
  EXPECT_NEAR(a.Mean(), mean_combined, 1.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, ClampsToMaxValue) {
  Histogram h(/*max_value=*/1000);
  h.Record(50'000);
  EXPECT_LE(h.max(), 1000);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, PercentileCurveIsMonotonic) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBounded(10'000'000)));
  }
  auto curve = h.PercentileCurve();
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].second, curve[i].second);
    EXPECT_LE(curve[i - 1].first, curve[i].first);
  }
}

TEST(HistogramTest, QuantileZeroAndOneAreExactMinMax) {
  Histogram h;
  h.Record(1234);
  h.Record(999'999);
  h.Record(31);
  // q<=0 and q>=1 bypass bucket interpolation and return the exact
  // extremes, not bucket upper edges.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 31);
  EXPECT_EQ(h.ValueAtQuantile(-0.5), 31);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 999'999);
  EXPECT_EQ(h.ValueAtQuantile(2.0), 999'999);
}

TEST(HistogramTest, SingleValueAllQuantiles) {
  Histogram h;
  h.Record(5'000);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0}) {
    int64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, 5'000) << "q=" << q;
    EXPECT_LE(v, 5'000 + 5'000 / 64 + 1) << "q=" << q;
  }
  // Exact at the endpoints.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 5'000);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 5'000);
}

TEST(HistogramTest, TopBucketClampKeepsQuantilesBounded) {
  Histogram h(/*max_value=*/1000);
  for (int i = 0; i < 100; ++i) h.Record(1'000'000 + i);  // all clamp
  EXPECT_EQ(h.count(), 100);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_LE(h.ValueAtQuantile(q), 1000) << "q=" << q;
  }
  EXPECT_EQ(h.max(), 1000);
}

TEST(HistogramTest, MergeRejectsDifferentMaxValue) {
  Histogram a(/*max_value=*/1 << 20);
  Histogram b(/*max_value=*/1 << 30);
  a.Record(100);
  b.Record(200);
  // Different max_value => different bucket layouts; merging must refuse
  // rather than misattribute counts.
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.count(), 1);  // untouched
  EXPECT_EQ(a.max(), 100);

  Histogram c(/*max_value=*/1 << 20);
  c.Record(300);
  EXPECT_TRUE(a.Merge(c));
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.max(), 300);
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram a, b;
  a.Record(42);
  EXPECT_TRUE(a.Merge(b));
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(b.count(), 0);
}

TEST(HistogramTest, BucketLayoutHelpersAreConsistent) {
  const int64_t max_value = int64_t{1} << 42;
  const int n = Histogram::BucketCountFor(max_value);
  EXPECT_GT(n, 0);
  // Every bucket's upper edge maps back into that bucket, and edges are
  // strictly increasing — the contract obs::AtomicHistogram relies on.
  int64_t prev_edge = -1;
  for (int i = 0; i < n; ++i) {
    int64_t edge = Histogram::BucketUpperEdgeOf(i);
    EXPECT_GT(edge, prev_edge) << "bucket " << i;
    if (edge <= max_value) {
      EXPECT_EQ(Histogram::BucketIndexOf(edge, max_value), i) << "bucket " << i;
    }
    prev_edge = edge;
  }
}

// Property sweep: histogram quantiles track exact quantiles within the
// bucket resolution for several distributions.
class HistogramAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramAccuracyTest, QuantilesMatchSortedData) {
  const int distribution = GetParam();
  Rng rng(42 + static_cast<uint64_t>(distribution));
  std::vector<int64_t> values;
  Histogram h;
  for (int i = 0; i < 200'000; ++i) {
    int64_t v = 0;
    switch (distribution) {
      case 0:  // uniform
        v = static_cast<int64_t>(rng.NextBounded(1'000'000));
        break;
      case 1:  // exponential
        v = static_cast<int64_t>(rng.NextExponential(50'000));
        break;
      case 2:  // bimodal (fast path + rare slow tail)
        v = rng.NextDouble() < 0.99
                ? static_cast<int64_t>(rng.NextBounded(10'000))
                : static_cast<int64_t>(5'000'000 + rng.NextBounded(1'000'000));
        break;
      case 3:  // constant
        v = 777;
        break;
      default:
        break;
    }
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    auto idx = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
    double exact = static_cast<double>(values[idx]);
    double approx = static_cast<double>(h.ValueAtQuantile(q));
    // Within bucket resolution (~1/64 relative) plus a small absolute slack.
    EXPECT_NEAR(approx, exact, exact / 32 + 64)
        << "dist=" << distribution << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramAccuracyTest,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// SpscQueue
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(std::move(i)));
    int overflow = 99;
    EXPECT_FALSE(q.TryPush(overflow));  // full
    for (int i = 0; i < 8; ++i) {
      int out = -1;
      EXPECT_TRUE(q.TryPop(out));
      EXPECT_EQ(out, i);
    }
    int out;
    EXPECT_FALSE(q.TryPop(out));  // empty
  }
}

TEST(SpscQueueTest, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  SpscQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(SpscQueueTest, PeekAndPopFront) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.Peek(), nullptr);
  int v = 5;
  q.TryPush(v);
  ASSERT_NE(q.Peek(), nullptr);
  EXPECT_EQ(*q.Peek(), 5);
  q.PopFront();
  EXPECT_EQ(q.Peek(), nullptr);
}

TEST(SpscQueueTest, BatchOperations) {
  SpscQueue<int> q(16);
  std::vector<int> in = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.PushBatch(in.begin(), in.end()), 5u);
  std::vector<int> out;
  EXPECT_EQ(q.DrainTo([&out](int&& v) { out.push_back(v); }, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.SizeApprox(), 2u);
}

TEST(SpscQueueTest, TwoThreadStressPreservesFifoAndCount) {
  constexpr int64_t kItems = 2'000'000;
  SpscQueue<int64_t> q(1024);
  std::thread producer([&q]() {
    for (int64_t i = 0; i < kItems;) {
      int64_t v = i;
      if (q.TryPush(v)) ++i;
    }
  });
  int64_t expected = 0;
  int64_t sum = 0;
  while (expected < kItems) {
    int64_t out;
    if (q.TryPop(out)) {
      ASSERT_EQ(out, expected);  // strict FIFO
      sum += out;
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(SpscQueueTest, MoveOnlyPayload) {
  SpscQueue<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(3)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 3);
}

// ---------------------------------------------------------------------------
// Serde
// ---------------------------------------------------------------------------

TEST(SerdeTest, PrimitiveRoundTrip) {
  BytesWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(0xDEADBEEFCAFEBABEULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteString("hello");
  Bytes b = w.Take();

  BytesReader r(b);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, VarintRoundTripSweep) {
  std::vector<int64_t> values = {0,  1,  -1, 127,  128,  -128, 300, -300,
                                 1'000'000, -1'000'000};
  values.push_back(std::numeric_limits<int64_t>::max());
  values.push_back(std::numeric_limits<int64_t>::min());
  for (int64_t v : values) {
    BytesWriter w;
    w.WriteVarI64(v);
    BytesReader r(w.buffer());
    int64_t out = 0;
    ASSERT_TRUE(r.ReadVarI64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(SerdeTest, VarintIsCompactForSmallValues) {
  BytesWriter w;
  w.WriteVarU64(5);
  EXPECT_EQ(w.size(), 1u);
  w.WriteVarU64(1ull << 60);
  EXPECT_GE(w.size(), 9u);
}

TEST(SerdeTest, UnderflowReturnsError) {
  Bytes b = {1, 2};
  BytesReader r(b);
  uint64_t v;
  EXPECT_FALSE(r.ReadU64(&v).ok());
}

TEST(SerdeTest, TruncatedStringReturnsError) {
  BytesWriter w;
  w.WriteVarU64(100);  // claims 100 bytes follow
  w.WriteU8('x');
  BytesReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(SerdeTest, TruncatedVarintReturnsError) {
  Bytes b = {0x80};  // continuation bit set, no next byte
  BytesReader r(b);
  uint64_t v;
  EXPECT_FALSE(r.ReadVarU64(&v).ok());
}

TEST(SerdeTest, TenByteVarintBoundaryRoundTrips) {
  // UINT64_MAX encodes as exactly 10 bytes; the 10th byte carries bit 63.
  BytesWriter w;
  w.WriteVarU64(std::numeric_limits<uint64_t>::max());
  ASSERT_EQ(w.size(), 10u);
  BytesReader r(w.buffer());
  uint64_t v = 0;
  ASSERT_TRUE(r.ReadVarU64(&v).ok());
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, OverflowingTenthByteReturnsInvalidArgument) {
  // 9 continuation bytes put the 10th byte at shift 63, where only bit 0
  // fits. A 10th byte with any of bits 1..6 set encodes a value >= 2^64;
  // the reader must reject it instead of silently dropping the high bits.
  for (uint8_t tenth : {uint8_t{0x02}, uint8_t{0x7E}, uint8_t{0x40}}) {
    Bytes b(9, 0x80);
    b.push_back(tenth);
    BytesReader r(b);
    uint64_t v = 0;
    Status s = r.ReadVarU64(&v);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << int(tenth);
  }
  // Bit 0 alone in the 10th byte is the top bit of a valid u64.
  Bytes ok(9, 0x80);
  ok.push_back(0x01);
  BytesReader r(ok);
  uint64_t v = 0;
  ASSERT_TRUE(r.ReadVarU64(&v).ok());
  EXPECT_EQ(v, 1ull << 63);
}

TEST(SerdeTest, OverlongVarintReturnsInvalidArgument) {
  // 10 continuation bytes push shift past 64: "varint too long".
  Bytes b(10, 0x80);
  b.push_back(0x00);
  BytesReader r(b);
  uint64_t v = 0;
  EXPECT_EQ(r.ReadVarU64(&v).code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, Int64MinZigzagRoundTrip) {
  // INT64_MIN zigzags to UINT64_MAX — the exact 10-byte boundary case the
  // old reader mis-decoded by discarding the 10th byte's high bits.
  BytesWriter w;
  w.WriteVarI64(std::numeric_limits<int64_t>::min());
  ASSERT_EQ(w.size(), 10u);
  BytesReader r(w.buffer());
  int64_t v = 0;
  ASSERT_TRUE(r.ReadVarI64(&v).ok());
  EXPECT_EQ(v, std::numeric_limits<int64_t>::min());
}

// ---------------------------------------------------------------------------
// Rng / hashing
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanIsClose) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(100.0);
  EXPECT_NEAR(sum / kN, 100.0, 2.0);
}

TEST(HashTest, AvalancheChangesManyBits) {
  int total_flips = 0;
  for (uint64_t x = 0; x < 1000; ++x) {
    uint64_t h1 = HashU64(x);
    uint64_t h2 = HashU64(x + 1);
    total_flips += __builtin_popcountll(h1 ^ h2);
  }
  // Average flips should be near 32 of 64 bits.
  EXPECT_GT(total_flips / 1000, 24);
  EXPECT_LT(total_flips / 1000, 40);
}

TEST(HashTest, BytesHashDiffersOnContent) {
  std::string a = "hello world";
  std::string b = "hello worle";
  EXPECT_NE(HashBytes(a.data(), a.size()), HashBytes(b.data(), b.size()));
}

// ---------------------------------------------------------------------------
// Clocks & idle strategy
// ---------------------------------------------------------------------------

TEST(ClockTest, WallClockAdvances) {
  WallClock clock;
  Nanos a = clock.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Nanos b = clock.Now();
  EXPECT_GT(b, a);
}

TEST(ClockTest, ManualClockOnlyMovesWhenAsked) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(IdleStrategyTest, EscalatesToParkingAndResets) {
  BackoffIdleStrategy idle(/*max_spins=*/2, /*max_yields=*/2,
                           /*min_park_nanos=*/100, /*max_park_nanos=*/1000);
  EXPECT_FALSE(idle.IsParking());
  for (int i = 0; i < 4; ++i) idle.Idle();
  EXPECT_TRUE(idle.IsParking());
  idle.Reset();
  EXPECT_FALSE(idle.IsParking());
}

// ---------------------------------------------------------------------------
// RetryBackoff (shared by core::RestartPolicy and socket connect retries)
// ---------------------------------------------------------------------------

TEST(RetryBackoffTest, LadderIsDeterministicPerSeedAndStream) {
  BackoffOptions options;
  options.retry_budget = 5;
  options.initial_backoff = 100;
  options.backoff_multiplier = 2.0;
  options.max_backoff = 1000;
  options.jitter_seed = 42;
  options.jitter_fraction = 0.25;

  RetryBackoff a(options, /*stream_id=*/7);
  RetryBackoff b(options, /*stream_id=*/7);
  RetryBackoff other_stream(options, /*stream_id=*/8);

  bool any_stream_difference = false;
  Nanos prev = 0;
  for (int i = 0; i < 5; ++i) {
    auto da = a.NextDelay();
    auto db = b.NextDelay();
    auto dc = other_stream.NextDelay();
    ASSERT_TRUE(da.has_value());
    ASSERT_TRUE(db.has_value());
    ASSERT_TRUE(dc.has_value());
    // Same seed + same stream -> identical delays; replayable timelines.
    EXPECT_EQ(*da, *db) << "attempt " << i;
    if (*da != *dc) any_stream_difference = true;
    // Base doubles up to the cap; jitter only ever adds (<= 25% here).
    EXPECT_GE(*da, prev == 0 ? options.initial_backoff : 0);
    EXPECT_LE(*da, options.max_backoff + options.max_backoff / 4);
    prev = *da;
  }
  // Different streams decorrelate: at least one delay differs.
  EXPECT_TRUE(any_stream_difference);
}

TEST(RetryBackoffTest, BudgetExhausts) {
  BackoffOptions options;
  options.retry_budget = 3;
  options.initial_backoff = 10;
  options.max_backoff = 100;

  RetryBackoff backoff(options, 0);
  EXPECT_EQ(backoff.budget_remaining(), 3);
  EXPECT_TRUE(backoff.NextDelay().has_value());
  EXPECT_EQ(backoff.budget_remaining(), 2);
  EXPECT_TRUE(backoff.NextDelay().has_value());
  EXPECT_EQ(backoff.budget_remaining(), 1);
  EXPECT_TRUE(backoff.NextDelay().has_value());
  EXPECT_EQ(backoff.budget_remaining(), 0);
  // Dry: refuses.
  EXPECT_FALSE(backoff.NextDelay().has_value());
  EXPECT_EQ(backoff.budget_remaining(), 0);
}

TEST(RetryBackoffTest, ResetLadderRestartsDelaysButNotBudget) {
  BackoffOptions options;
  options.retry_budget = 100;
  options.initial_backoff = 100;
  options.backoff_multiplier = 2.0;
  options.max_backoff = 100'000;
  options.jitter_fraction = 0.0;  // exact ladder values

  RetryBackoff backoff(options, 0);
  EXPECT_EQ(*backoff.NextDelay(), 100);
  EXPECT_EQ(*backoff.NextDelay(), 200);
  EXPECT_EQ(*backoff.NextDelay(), 400);
  EXPECT_EQ(backoff.consecutive_failures(), 3);

  backoff.ResetLadder();  // stability window elapsed
  EXPECT_EQ(backoff.consecutive_failures(), 0);
  EXPECT_EQ(*backoff.NextDelay(), 100);   // ladder restarted
  EXPECT_EQ(backoff.budget_remaining(), 100 - 4);  // budget did not refill
}

TEST(RetryBackoffTest, DelayNeverExceedsJitteredCap) {
  BackoffOptions options;
  options.retry_budget = 50;
  options.initial_backoff = 10;
  options.backoff_multiplier = 3.0;
  options.max_backoff = 500;
  options.jitter_fraction = 0.5;

  RetryBackoff backoff(options, 3);
  for (int i = 0; i < 50; ++i) {
    auto delay = backoff.NextDelay();
    ASSERT_TRUE(delay.has_value());
    EXPECT_LE(*delay, options.max_backoff + options.max_backoff / 2);
    EXPECT_GE(*delay, options.initial_backoff);
  }
  EXPECT_FALSE(backoff.NextDelay().has_value());
}

}  // namespace
}  // namespace jet
