#ifndef JETSIM_NEXMARK_QUERIES_H_
#define JETSIM_NEXMARK_QUERIES_H_

#include <memory>

#include "common/histogram.h"
#include "pipeline/pipeline.h"
#include "nexmark/generator.h"
#include "nexmark/model.h"

namespace jet::nexmark {

/// Workload + topology configuration of one NEXMark query run, defaulted
/// to the paper's §7.1 methodology: 1M events/s, 10k keys, 10s windows
/// sliding by 10ms, latency measured from each event's predetermined
/// occurrence time.
struct QueryConfig {
  GeneratorConfig generator;
  double events_per_second = 1'000'000;
  Nanos duration = 10 * kNanosPerSecond;
  Nanos window_size = 10 * kNanosPerSecond;
  Nanos window_slide = 10 * kNanosPerMilli;
  Nanos watermark_interval = kNanosPerMilli;
  int32_t source_parallelism = 1;
  int32_t sink_parallelism = 1;
  /// Shared event-time anchor; -1 = each source instance anchors itself.
  Nanos start_time = -1;
};

/// Output record of Q3 (sellers in particular US states).
struct Q3Result {
  int64_t person = 0;
  int32_t city = 0;
  int64_t auction = 0;
};

/// Intermediate record of Q4/Q6: a bid matched to its auction.
struct AuctionSale {
  int64_t auction = 0;
  int64_t seller = 0;
  int32_t category = 0;
  int64_t price = 0;
};

/// Q5/Q7 helper: the hottest item (argmax of bid count / price).
struct HotItemAcc {
  int64_t key = -1;
  int64_t value = -1;
};

/// A built NEXMark query: keep this object alive while the job runs. The
/// pipeline's terminal stage records per-result latency into `latency`
/// (per §7.1: the clock starts at the event's predetermined occurrence
/// time / the window's end, and stops when the result is emitted).
struct NexmarkQuery {
  int query_number = 0;
  pipeline::Pipeline pipeline;
  std::shared_ptr<core::LatencyRecorder> latency =
      std::make_shared<core::LatencyRecorder>();

  /// Merged latency histogram across sink instances (call once quiesced).
  Histogram MergedLatency() const { return latency->Merged(); }
};

/// Queries implemented (paper §7.1): 1, 2, 3, 4, 5, 6, 7, 8, 13.
bool IsQuerySupported(int query_number);

/// Builds NEXMark query `query_number` as a Pipeline. Returns
/// InvalidArgument for unsupported numbers.
Result<std::unique_ptr<NexmarkQuery>> BuildQuery(int query_number,
                                                 const QueryConfig& config);

}  // namespace jet::nexmark

#endif  // JETSIM_NEXMARK_QUERIES_H_
