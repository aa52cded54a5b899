#ifndef JETSIM_COMMON_BACKOFF_H_
#define JETSIM_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/clock.h"
#include "common/rng.h"

namespace jet {

/// Knobs of a retry ladder: a bounded budget of retries, exponential
/// backoff between them, and seeded jitter to spread simultaneous retries.
/// Shared by every self-healing layer (core::RestartPolicy's job restarts
/// and member respawns, socket reconnects): one policy vocabulary and one
/// deterministic jitter implementation.
struct BackoffOptions {
  /// Retries allowed before the protected operation is declared failed.
  int32_t retry_budget = 8;
  Nanos initial_backoff = 20 * kNanosPerMilli;
  double backoff_multiplier = 2.0;
  Nanos max_backoff = 2 * kNanosPerSecond;
  /// Seed of the jitter stream (xored with the caller's stream id):
  /// deterministic per seed, decorrelated per protected resource.
  uint64_t jitter_seed = 0x5E1F;
  /// Jitter added on top of the base backoff, as a fraction of it.
  double jitter_fraction = 0.25;
};

/// Deterministic retry/backoff ladder with a budget. Not thread-safe: the
/// owner serializes calls (a RestartPolicy's driving thread or a single
/// connecting thread).
class RetryBackoff {
 public:
  /// `stream_id` decorrelates jitter between instances sharing a seed
  /// (job id, member index, connection ordinal).
  RetryBackoff(const BackoffOptions& options, uint64_t stream_id)
      : options_(options),
        jitter_(options.jitter_seed ^ stream_id),
        budget_remaining_(options.retry_budget) {}

  /// Charges one retry and returns the jittered delay to wait before it,
  /// or std::nullopt when the budget is exhausted (the caller must fail).
  /// Each call advances the exponent ladder.
  std::optional<Nanos> NextDelay() {
    if (budget_remaining_ <= 0) return std::nullopt;
    --budget_remaining_;
    double base = static_cast<double>(options_.initial_backoff);
    for (int32_t i = 0; i < consecutive_failures_; ++i) {
      base *= options_.backoff_multiplier;
      if (base >= static_cast<double>(options_.max_backoff)) break;
    }
    auto delay = std::min<Nanos>(static_cast<Nanos>(base), options_.max_backoff);
    if (options_.jitter_fraction > 0 && delay > 0) {
      auto span = static_cast<uint64_t>(static_cast<double>(delay) *
                                        options_.jitter_fraction);
      if (span > 0) delay += static_cast<Nanos>(jitter_.NextBounded(span));
    }
    ++consecutive_failures_;
    last_delay_ = delay;
    return delay;
  }

  /// Resets the exponent ladder (stability-window damping: after a long
  /// healthy stretch, the next incident starts from initial_backoff).
  /// Does not refund budget.
  void ResetLadder() { consecutive_failures_ = 0; }

  int32_t budget_remaining() const { return budget_remaining_; }
  int32_t consecutive_failures() const { return consecutive_failures_; }
  Nanos last_delay() const { return last_delay_; }

 private:
  BackoffOptions options_;
  Rng jitter_;
  int32_t budget_remaining_ = 0;
  int32_t consecutive_failures_ = 0;
  Nanos last_delay_ = 0;
};

}  // namespace jet

#endif  // JETSIM_COMMON_BACKOFF_H_
