#ifndef JETSIM_COMMON_CLOCK_H_
#define JETSIM_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace jet {

/// Nanoseconds since an arbitrary epoch. All engine-internal timestamps use
/// this unit so that the real engine (wall clock) and the discrete-event
/// simulator (virtual clock) share one time domain.
using Nanos = int64_t;

constexpr Nanos kNanosPerMicro = 1'000;
constexpr Nanos kNanosPerMilli = 1'000'000;
constexpr Nanos kNanosPerSecond = 1'000'000'000;

/// Converts nanoseconds to (truncated) milliseconds.
constexpr int64_t NanosToMillis(Nanos nanos) { return nanos / kNanosPerMilli; }

/// Abstract monotonic time source.
///
/// The production engine uses `WallClock`; tests and the discrete-event
/// simulator use `ManualClock` to make time deterministic.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Returns the current time in nanoseconds since the clock's epoch.
  virtual Nanos Now() const = 0;
};

/// Monotonic wall-clock backed by std::chrono::steady_clock.
class WallClock final : public Clock {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  Nanos Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Returns a process-wide shared wall clock.
  static WallClock& Global();

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// A clock whose time only moves when explicitly advanced. Thread-safe.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(Nanos start = 0) : now_(start) {}

  Nanos Now() const override { return now_.load(std::memory_order_acquire); }

  /// Advances the clock by `delta` nanoseconds and returns the new time.
  Nanos Advance(Nanos delta) {
    return now_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  }

  /// Sets the clock to an absolute time. `t` must not move time backwards.
  void SetTime(Nanos t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<Nanos> now_;
};

}  // namespace jet

#endif  // JETSIM_COMMON_CLOCK_H_
