#ifndef JETSIM_COMMON_HISTOGRAM_H_
#define JETSIM_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jet {

/// HDR-style log-bucketed histogram for latency recording.
///
/// Values (typically nanoseconds) are bucketed with a bounded relative error
/// of about 1/64 (two significant decimal digits): each power-of-two range
/// is split into 64 linear sub-buckets. Recording is O(1) and allocation
/// free after construction; percentile queries are O(#buckets).
///
/// The histogram is NOT thread-safe; each recording thread should own one
/// and merge at the end (see `Merge`). obs::AtomicHistogram provides the
/// concurrent-read variant built on the same bucket layout (the static
/// helpers below).
class Histogram {
 public:
  /// Creates a histogram able to record values in [0, max_value]. Values
  /// above `max_value` are clamped and counted in the top bucket.
  explicit Histogram(int64_t max_value = int64_t{1} << 42);

  /// Records one observation of `value` (negative values clamp to 0).
  void Record(int64_t value) { RecordN(value, 1); }

  /// Records `count` observations of `value`.
  void RecordN(int64_t value, int64_t count);

  /// Adds all recorded values of `other` into this histogram. Returns false
  /// (and leaves this histogram untouched) when the two were created with
  /// different `max_value`s: their bucket layouts differ, so merging would
  /// silently misattribute counts.
  bool Merge(const Histogram& other);

  /// Adds externally captured per-bucket counts (e.g. an
  /// obs::AtomicHistogram snapshot using the same bucket layout) together
  /// with their value-range/sum summary. Returns false when `n` does not
  /// match this histogram's bucket count.
  bool MergeBucketCounts(const int64_t* counts, size_t n, int64_t min_value,
                         int64_t max_value_seen, double sum);

  /// Removes all recorded values.
  void Reset();

  /// Total number of recorded observations.
  int64_t count() const { return count_; }

  /// Smallest recorded value (0 if empty).
  int64_t min() const { return count_ == 0 ? 0 : min_; }

  /// Largest recorded value (0 if empty), subject to bucket rounding.
  int64_t max() const { return count_ == 0 ? 0 : max_; }

  /// Upper bound this histogram was created with.
  int64_t max_value() const { return max_value_; }

  /// Arithmetic mean of recorded values (0 if empty).
  double Mean() const;

  /// Returns the value at quantile `q` in [0, 1]; e.g. q=0.9999 for the
  /// 99.99th percentile. Returns 0 when empty. q <= 0 returns the exact
  /// minimum and q >= 1 the exact maximum; in between, the returned value
  /// is the upper edge of the bucket containing the quantile, so it never
  /// under-reports by more than the bucket's relative error.
  int64_t ValueAtQuantile(double q) const;

  /// Renders a short single-line summary with the standard percentiles,
  /// with values scaled by `unit` and suffixed by `unit_name` (e.g. unit =
  /// 1e6, unit_name = "ms" to print nanosecond recordings as milliseconds).
  std::string Summary(double unit = 1.0, const std::string& unit_name = "") const;

  /// Returns (quantile, value) pairs suitable for plotting a percentile
  /// distribution curve like the paper's Figures 9/11/12/13. Quantiles are
  /// expressed as "number of nines"-style steps: 0.5, 0.75, 0.9, 0.99, ...
  std::vector<std::pair<double, int64_t>> PercentileCurve() const;

  // --- bucket layout, shared with obs::AtomicHistogram ---

  /// Bucket index of `value` in a histogram bounded by `max_value`
  /// (clamping applied).
  static int BucketIndexOf(int64_t value, int64_t max_value);

  /// Upper edge (inclusive) of bucket `index`.
  static int64_t BucketUpperEdgeOf(int index);

  /// Number of buckets a histogram bounded by `max_value` allocates.
  static int BucketCountFor(int64_t max_value) {
    return BucketIndexOf(max_value, max_value) + 1;
  }

 private:
  static constexpr int kSubBucketBits = 6;                    // 64 sub-buckets
  static constexpr int kSubBucketCount = 1 << kSubBucketBits; // per power of 2

  int BucketIndexFor(int64_t value) const { return BucketIndexOf(value, max_value_); }

  int64_t max_value_;
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0;
  std::vector<int64_t> buckets_;
};

}  // namespace jet

#endif  // JETSIM_COMMON_HISTOGRAM_H_
