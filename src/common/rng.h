#ifndef JETSIM_COMMON_RNG_H_
#define JETSIM_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace jet {

/// Fast, deterministic pseudo-random number generator (xoshiro256**).
///
/// Used throughout the workload generators and the discrete-event simulator
/// where reproducibility across runs matters. Not cryptographically secure.
class Rng {
 public:
  /// Seeds the generator. Two generators with equal seeds produce identical
  /// sequences.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  /// Returns the next 64 random bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // bias is negligible for bounds far below 2^64.
    return static_cast<uint64_t>((static_cast<__uint128_t>(NextU64()) * bound) >> 64);
  }

  /// Returns a uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns an exponentially distributed double with the given mean.
  double NextExponential(double mean) {
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Returns a normally distributed double (Box-Muller, one value per call).
  double NextGaussian(double mean, double stddev) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * 3.14159265358979323846 * u2);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

/// 64-bit avalanche hash (SplitMix64 finalizer). Used for key partitioning;
/// stable across platforms and runs.
inline uint64_t HashU64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// FNV-1a hash over a byte range; used for hashing string keys.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace jet

#endif  // JETSIM_COMMON_RNG_H_
