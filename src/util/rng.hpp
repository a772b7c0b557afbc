// Deterministic pseudo-random number generation for workload synthesis.
//
// Every experiment in this repository must be reproducible bit for bit, so
// all randomness flows through this xoshiro256** implementation with
// explicit seeds (we do not use std::random_device or global state).
//
// next, next_below, next_double and splitmix64 are defined inline: the
// seeded input builders and the per-op fault and placement hashes draw
// hundreds of thousands of times, and an inlined next_below with a constant
// bound folds its rejection threshold and turns its modulo into a multiply.
#pragma once

#include <cassert>
#include <cstdint>

namespace apim::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
/// re-implemented here. Fast, high-quality, and identical on every platform,
/// unlike std::mt19937 + distribution combinations which libc++/libstdc++
/// may implement differently.
class Xoshiro256 {
 public:
  /// Seeds the state from a single 64-bit value via splitmix64, which is the
  /// canonical way to expand a small seed to the 256-bit state.
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling, so
  /// the result is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    assert(bound > 0);
    // Rejection sampling: discard the biased tail of the 64-bit range.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    // 53 top bits -> [0,1) with full double precision.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) noexcept;

  /// Standard normal via Box-Muller (deterministic; caches the second value).
  double next_gaussian() noexcept;

  // UniformRandomBitGenerator interface so the generator also plugs into
  // <algorithm> shuffles when needed.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }
  result_type operator()() noexcept { return next(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// splitmix64 step; exposed because tests and seeding logic use it directly.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace apim::util
