// Tests of the ApimDevice public API: signed semantics, approximation
// knobs, statistics and the time/energy/EDP accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "arith/latency_model.hpp"
#include "core/apim.hpp"
#include "util/rng.hpp"

// Counting global allocator: every operator new in this test binary bumps
// g_heap_allocations, so a test can assert that a code region makes no
// heap allocation at all.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace apim::core {
namespace {

ApimDevice make_device(unsigned relax = 0, unsigned mask = 0) {
  ApimConfig cfg;
  cfg.approx = arith::ApproxConfig{mask, relax};
  return ApimDevice{cfg};
}

TEST(ApimDevice, ExactSignedMultiply) {
  ApimDevice dev = make_device();
  EXPECT_EQ(dev.mul_int(6, 7), 42);
  EXPECT_EQ(dev.mul_int(-6, 7), -42);
  EXPECT_EQ(dev.mul_int(6, -7), -42);
  EXPECT_EQ(dev.mul_int(-6, -7), 42);
  EXPECT_EQ(dev.mul_int(0, 12345), 0);
}

TEST(ApimDevice, ExactSignedAdd) {
  ApimDevice dev = make_device();
  EXPECT_EQ(dev.add(100, 23), 123);
  EXPECT_EQ(dev.add(-100, -23), -123);
  EXPECT_EQ(dev.add(100, -23), 77);
  EXPECT_EQ(dev.add(-100, 23), -77);
}

TEST(ApimDevice, FixedPointMultiplyRescales) {
  ApimDevice dev = make_device();
  // 1.5 * 2.0 in Q16.16.
  const auto a = static_cast<std::int64_t>(1.5 * 65536);
  const auto b = static_cast<std::int64_t>(2.0 * 65536);
  const std::int64_t r = dev.mul(a, b, util::kQ16_16);
  EXPECT_NEAR(static_cast<double>(r) / 65536.0, 3.0, 1e-4);
  // Negative operand.
  const std::int64_t rn = dev.mul(-a, b, util::kQ16_16);
  EXPECT_NEAR(static_cast<double>(rn) / 65536.0, -3.0, 1e-4);
}

TEST(ApimDevice, StatsAccumulate) {
  ApimDevice dev = make_device();
  (void)dev.mul_int(123, 45);
  (void)dev.add(1, 2);
  (void)dev.mac_int(0, 3, 4);  // One mult + one add.
  EXPECT_EQ(dev.stats().multiplies, 2u);
  EXPECT_EQ(dev.stats().additions, 2u);
  EXPECT_GT(dev.stats().cycles, 0u);
  EXPECT_GT(dev.energy_pj(), 0.0);
  dev.reset_stats();
  EXPECT_EQ(dev.stats().multiplies, 0u);
  EXPECT_EQ(dev.stats().cycles, 0u);
}

TEST(ApimDevice, AddCyclesMatchLatencyModel) {
  ApimDevice dev = make_device();
  (void)dev.add(5, 9);
  EXPECT_EQ(dev.stats().cycles, arith::serial_add_cycles(32));
  // Word adds relax half the product-adder setting (m_add = m/2).
  ApimDevice relaxed = make_device(/*relax=*/16);
  (void)relaxed.add(5, 9);
  EXPECT_EQ(relaxed.stats().cycles, arith::final_add_cycles(32, 8));
}

TEST(ApimDevice, RelaxedMultiplyKeepsHighBitsExact) {
  ApimDevice dev = make_device(/*relax=*/24);
  util::Xoshiro256 rng(61);
  for (int t = 0; t < 100; ++t) {
    const auto a = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const auto b = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const std::int64_t r = dev.mul_int(a, b);
    EXPECT_EQ(r >> 24, (a * b) >> 24);
  }
}

TEST(ApimDevice, RelaxedModeIsFasterAndCheaper) {
  ApimDevice exact = make_device();
  ApimDevice relaxed = make_device(/*relax=*/32);
  util::Xoshiro256 rng(62);
  for (int t = 0; t < 50; ++t) {
    const auto a = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const auto b = static_cast<std::int64_t>(rng.next_below(1u << 31));
    (void)exact.mul_int(a, b);
    (void)relaxed.mul_int(a, b);
  }
  EXPECT_LT(relaxed.stats().cycles, exact.stats().cycles);
  EXPECT_LT(relaxed.energy_pj(), exact.energy_pj());
  EXPECT_LT(relaxed.edp_js(), exact.edp_js());
}

TEST(ApimDevice, MaskBitsMakeMultiplierSparse) {
  ApimDevice masked = make_device(0, /*mask=*/16);
  ApimDevice full = make_device();
  (void)masked.mul_int(0x7FFFFFFF, 0x7FFFFFFF);
  (void)full.mul_int(0x7FFFFFFF, 0x7FFFFFFF);
  EXPECT_LT(masked.stats().partial_products,
            full.stats().partial_products);
}

TEST(ApimDevice, KnobsAreLive) {
  ApimDevice dev = make_device();
  dev.set_relax_bits(12);
  EXPECT_EQ(dev.relax_bits(), 12u);
  dev.set_mask_bits(4);
  EXPECT_EQ(dev.mask_bits(), 4u);
}

TEST(ApimDevice, ParallelLanesSpeedUpWallClockNotEnergy) {
  ApimConfig narrow_cfg;
  narrow_cfg.parallel_lanes = 1;
  ApimConfig wide_cfg;
  wide_cfg.parallel_lanes = 1024;
  ApimDevice narrow{narrow_cfg};
  ApimDevice wide{wide_cfg};
  (void)narrow.mul_int(12345, 6789);
  (void)wide.mul_int(12345, 6789);
  EXPECT_NEAR(narrow.elapsed_seconds() / wide.elapsed_seconds(), 1024.0,
              1e-6);
  EXPECT_DOUBLE_EQ(narrow.energy_pj(), wide.energy_pj());
}

TEST(ApimDevice, DotProduct) {
  ApimDevice dev = make_device();
  const std::vector<std::int64_t> a{1, 2, 3, -4};
  const std::vector<std::int64_t> b{5, -6, 7, 8};
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = dev.mac_int(acc, a[i], b[i]);
  EXPECT_EQ(acc, 5 - 12 + 21 - 32);
  EXPECT_EQ(dev.stats().multiplies, 4u);
}

TEST(ApimDevice, MagnitudesClampAtWordWidth) {
  ApimConfig cfg;
  cfg.word_bits = 8;
  ApimDevice dev{cfg};
  // 300 clamps to 255 in an 8-bit datapath.
  EXPECT_EQ(dev.mul_int(300, 1), 255);
}

TEST(ApimDevice, RejectsInvalidConfigInEveryBuildType) {
  for (const unsigned bits : {3u, 33u}) {
    ApimConfig cfg;
    cfg.word_bits = bits;
    EXPECT_THROW(ApimDevice{cfg}, std::invalid_argument) << bits;
  }
  ApimConfig no_lanes;
  no_lanes.parallel_lanes = 0;
  EXPECT_THROW(ApimDevice{no_lanes}, std::invalid_argument);
  for (const unsigned bits : {4u, 32u}) {
    ApimConfig cfg;
    cfg.word_bits = bits;
    EXPECT_NO_THROW(ApimDevice{cfg}) << bits;
  }
}

/// Heap allocations made by `body` (run once untimed first, so one-time
/// lazy initialization is not counted).
template <class Body>
std::size_t allocations_in(Body body) {
  body();
  const std::size_t before = g_heap_allocations.load();
  body();
  return g_heap_allocations.load() - before;
}

// The scalar word path is allocation-free: what makes it cheap on the
// host is checked by counting, not by a clock.
TEST(ApimDevice, ScalarWordOpsMakeNoHeapAllocations) {
  ApimDevice dev = make_device();
  ASSERT_EQ(dev.config().backend, Backend::kFast);
  ASSERT_TRUE(dev.config().reliability.passive());
  util::Xoshiro256 rng(71);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops(64);
  for (auto& [a, b] : ops) {
    a = rng.next() & 0xFFFFFFFFu;
    b = rng.next() & 0xFFFFFFFFu;
  }
  std::uint64_t sink = 0;
  EXPECT_EQ(allocations_in([&] {
              for (const auto& [a, b] : ops) {
                sink += dev.mul_magnitude(a, b);
                sink += dev.add_magnitude(a, b);
                sink += dev.cmp_magnitude(a, b);
                sink += dev.popcnt_magnitude(a);
              }
            }),
            0u);
  dev.set_relax_bits(20);
  EXPECT_EQ(allocations_in([&] {
              for (const auto& [a, b] : ops)
                sink += dev.mul_magnitude(a, b) + dev.add_magnitude(a, b);
            }),
            0u);

  const device::EnergyModel& em = dev.config().energy;
  for (const unsigned n : {4u, 8u, 16u, 24u, 32u}) {
    const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
    EXPECT_EQ(allocations_in([&] {
                for (const auto& [a, b] : ops) {
                  sink += arith::fast_multiply(a & mask, b & mask, n,
                                               arith::ApproxConfig{3, n},
                                               em)
                              .product;
                  sink += arith::fast_multiply(a & mask, b & mask, n,
                                               arith::ApproxConfig::exact(),
                                               em)
                              .product;
                  sink += arith::fast_add(a, b, n, 0, em).sum;
                  sink += arith::fast_add(a, b, n, n / 2, em).sum;
                  sink += arith::fast_compare(a, b, n, em).code;
                  sink += arith::fast_popcount(a, n, em).sum;
                }
              }),
              0u)
        << "n=" << n;
  }
  EXPECT_NE(sink, 0u);
}

// The batch entry points serve::execute_batch drives on every dispatch are
// the scalar step in a loop: no per-batch buffer, on either word backend.
TEST(ApimDevice, BatchOpsMakeNoHeapAllocations) {
  util::Xoshiro256 rng(72);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops(64);
  for (auto& [a, b] : ops) {
    a = rng.next() & 0xFFFFFFFFu;
    b = rng.next() & 0xFFFFFFFFu;
  }
  std::vector<std::uint64_t> values(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  for (const Backend backend : {Backend::kFast, Backend::kBitsliced}) {
    for (const unsigned relax : {0u, 20u}) {
      ApimConfig cfg;
      cfg.backend = backend;
      cfg.approx = arith::ApproxConfig{0, relax};
      ApimDevice dev{cfg};
      ASSERT_TRUE(dev.config().reliability.passive());
      EXPECT_EQ(allocations_in([&] {
                  dev.mul_magnitude_batch(ops, values, cycles);
                  dev.add_magnitude_batch(ops, values, cycles);
                  dev.cmp_magnitude_batch(ops, values, cycles);
                  dev.popcnt_magnitude_batch(ops, values, cycles);
                }),
                0u)
          << "backend " << static_cast<int>(backend) << " relax " << relax;
      EXPECT_EQ(dev.stats().multiplies, 2 * ops.size());
    }
  }
}

}  // namespace
}  // namespace apim::core
