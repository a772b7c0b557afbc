// Deterministic pseudo-random number generation for workload synthesis.
//
// Every experiment in this repository must be reproducible bit for bit, so
// all randomness flows through this xoshiro256** implementation with
// explicit seeds (we do not use std::random_device or global state).
#pragma once

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
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling, so
  /// the result is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

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
  std::uint64_t s_[4]{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// splitmix64 step; exposed because tests and seeding logic use it directly.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace apim::util
