// Tests of the full APIM multiplier (both simulation levels): exact
// correctness, approximation semantics, latency formulas and the PPG
// popcount-dependence the paper highlights.
#include <gtest/gtest.h>

#include <stdexcept>

#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

// ------------------------------------------------------------------- ppg --

TEST(Ppg, GeneratesOnePartialPerSetBit) {
  const PpgResult r = word_ppg(0xAB, 0b1010, 8, 0);
  ASSERT_EQ(r.partials.size(), 2u);
  EXPECT_EQ(r.partials[0], 0xABull << 1);
  EXPECT_EQ(r.partials[1], 0xABull << 3);
  EXPECT_EQ(r.widths[0], 9u);
  EXPECT_EQ(r.widths[1], 11u);
}

TEST(Ppg, CyclesArePopcountPlusOne) {
  // Section 3.3: shared invert + one copy per '1' bit; worst case N+1.
  for (std::uint64_t m2 : {0b1ull, 0b1111ull, 0xFFull, 0x55ull}) {
    const PpgResult r = word_ppg(0x3C, m2, 8, 0);
    const unsigned p = static_cast<unsigned>(util::popcount(m2));
    EXPECT_EQ(r.cycles, ppg_cycles(p)) << "m2=" << m2;
  }
  EXPECT_EQ(word_ppg(0x3C, 0, 8, 0).cycles, 0u);
  EXPECT_EQ(word_ppg(0x3C, 0xFF, 8, 0).cycles, 9u);  // N+1.
}

TEST(Ppg, MaskingSkipsLowBits) {
  const PpgResult r = word_ppg(0xFF, 0b00001111, 8, 2);
  ASSERT_EQ(r.partials.size(), 2u);  // Bits 2 and 3 survive.
  EXPECT_EQ(r.partials[0], 0xFFull << 2);
  // Masked bits are not even read: energy shrinks.
  const PpgResult unmasked = word_ppg(0xFF, 0b00001111, 8, 0);
  EXPECT_LT(em().energy_pj(r.energy), em().energy_pj(unmasked.energy));
}

// ---------------------------------------------------------- exact multiply --

TEST(Multiply, FastModelExactOverRandomOperands) {
  util::Xoshiro256 rng(51);
  for (int trial = 0; trial < 500; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(32));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const MultiplyOutcome r =
        fast_multiply(a, b, n, ApproxConfig::exact(), em());
    EXPECT_EQ(r.product, a * b) << "n=" << n << " a=" << a << " b=" << b;
  }
}

TEST(Multiply, EngineExactOverRandomOperands) {
  util::Xoshiro256 rng(52);
  for (int trial = 0; trial < 25; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.next_below(13));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const InMemoryResult r =
        inmemory_multiply(a, b, n, ApproxConfig::exact(), em());
    EXPECT_EQ(r.value, a * b) << "n=" << n << " a=" << a << " b=" << b;
  }
}

TEST(Multiply, EdgeOperands) {
  for (unsigned n : {4u, 8u, 16u, 32u}) {
    const std::uint64_t max = util::low_mask(n);
    EXPECT_EQ(fast_multiply(0, 123 & max, n, {}, em()).product, 0u);
    EXPECT_EQ(fast_multiply(123 & max, 0, n, {}, em()).product, 0u);
    EXPECT_EQ(fast_multiply(1, max, n, {}, em()).product, max);
    EXPECT_EQ(fast_multiply(max, max, n, {}, em()).product, max * max);
  }
}

TEST(Multiply, ZeroMultiplierCostsNothing) {
  const MultiplyOutcome r = fast_multiply(0xFFFF, 0, 16, {}, em());
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.partial_count, 0u);
}

TEST(Multiply, SingleBitMultiplierSkipsTreeAndFinal) {
  const MultiplyOutcome r = fast_multiply(0xABCD, 1u << 7, 16, {}, em());
  EXPECT_EQ(r.product, 0xABCDull << 7);
  EXPECT_EQ(r.partial_count, 1u);
  EXPECT_EQ(r.tree_stages, 0u);
  EXPECT_EQ(r.cycles, ppg_cycles(1));
}

TEST(Multiply, CycleFormulaMatchesMeasured) {
  util::Xoshiro256 rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.next_below(29));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const ApproxConfig cfg{
        static_cast<unsigned>(rng.next_below(n)),
        static_cast<unsigned>(rng.next_below(2 * n + 1))};
    const MultiplyOutcome r = fast_multiply(a, b, n, cfg, em());
    const unsigned p = static_cast<unsigned>(util::popcount(
        b & ~util::low_mask(cfg.mask_bits) & util::low_mask(n)));
    EXPECT_EQ(r.cycles, multiply_cycles(n, p, cfg))
        << "n=" << n << " p=" << p;
  }
}

TEST(Multiply, PopcountDrivesLatency) {
  // Section 3.3: "the actual delay would vary depending upon the number of
  // '1s' in M2"; sparse multipliers finish faster.
  const MultiplyOutcome dense = fast_multiply(0xFFFF, 0xFFFF, 16, {}, em());
  const MultiplyOutcome sparse = fast_multiply(0xFFFF, 0x8001, 16, {}, em());
  EXPECT_LT(sparse.cycles, dense.cycles);
  EXPECT_LT(em().energy_pj(sparse.energy), em().energy_pj(dense.energy));
}

// ------------------------------------------------------ approximate modes --

TEST(Multiply, FirstStageMaskEqualsMaskedExactProduct) {
  util::Xoshiro256 rng(54);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned n = 8 + static_cast<unsigned>(rng.next_below(25));
    const unsigned mask = static_cast<unsigned>(rng.next_below(n));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const MultiplyOutcome r =
        fast_multiply(a, b, n, ApproxConfig::first_stage(mask), em());
    const std::uint64_t masked_b = b & ~util::low_mask(mask);
    EXPECT_EQ(r.product, a * masked_b);
  }
}

TEST(Multiply, FirstStageErrorIsOneSidedUnderestimate) {
  // Masking drops partial products, so the approximation never exceeds the
  // exact product.
  util::Xoshiro256 rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const MultiplyOutcome r =
        fast_multiply(a, b, 32, ApproxConfig::first_stage(8), em());
    EXPECT_LE(r.product, a * b);
  }
}

TEST(Multiply, LastStageHighBitsExact) {
  // Carries are exact, so bits >= m of the product are always correct.
  util::Xoshiro256 rng(56);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned n = 16;
    const unsigned m = static_cast<unsigned>(rng.next_below(2 * n + 1));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const MultiplyOutcome r =
        fast_multiply(a, b, n, ApproxConfig::last_stage(m), em());
    EXPECT_EQ(r.product >> m, (a * b) >> m) << "m=" << m;
  }
}

TEST(Multiply, LastStageErrorBoundedByRelaxedRegion) {
  util::Xoshiro256 rng(57);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned m = 4 * (1 + static_cast<unsigned>(rng.next_below(8)));
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const MultiplyOutcome r =
        fast_multiply(a, b, 32, ApproxConfig::last_stage(m), em());
    const std::uint64_t exact = a * b;
    const std::uint64_t diff =
        r.product > exact ? r.product - exact : exact - r.product;
    EXPECT_LT(diff, std::uint64_t{1} << m);
  }
}

TEST(Multiply, RelaxBitsReduceLatencyMonotonically) {
  // The knob the adaptive runtime turns: more relax bits, fewer cycles.
  util::Cycles prev = ~util::Cycles{0};
  for (unsigned m : {0u, 4u, 8u, 16u, 24u, 32u}) {
    const MultiplyOutcome r =
        fast_multiply(0x9ABCDEF1, 0x12345678, 32,
                      ApproxConfig::last_stage(m), em());
    EXPECT_LT(r.cycles, prev) << "m=" << m;
    prev = r.cycles;
  }
}

TEST(Multiply, EngineMatchesApproxSemantics) {
  util::Xoshiro256 rng(58);
  for (int trial = 0; trial < 15; ++trial) {
    const unsigned n = 8;
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    for (const ApproxConfig cfg :
         {ApproxConfig::exact(), ApproxConfig::first_stage(3),
          ApproxConfig::last_stage(6), ApproxConfig{2, 5}}) {
      const InMemoryResult engine_r = inmemory_multiply(a, b, n, cfg, em());
      const MultiplyOutcome fast_r = fast_multiply(a, b, n, cfg, em());
      EXPECT_EQ(engine_r.value, fast_r.product)
          << "a=" << a << " b=" << b << " mask=" << cfg.mask_bits
          << " relax=" << cfg.relax_bits;
    }
  }
}

TEST(Multiply, CombinedModesCompose) {
  // First-stage masking then last-stage relaxation: high bits match the
  // masked product's high bits.
  const std::uint64_t a = 0xDEADBEEF, b = 0xCAFEF00D;
  const ApproxConfig cfg{8, 16};
  const MultiplyOutcome r = fast_multiply(a, b, 32, cfg, em());
  const std::uint64_t masked_product = a * (b & ~util::low_mask(8));
  EXPECT_EQ(r.product >> 16, masked_product >> 16);
}

TEST(Multiply, ExpectedCyclesIsReasonable) {
  const double expected = expected_multiply_cycles(32, ApproxConfig::exact());
  // Random 32x32: ~16 partials -> PPG 17 + tree 13*6 + final 13*64 = 927.
  EXPECT_GT(expected, 800.0);
  EXPECT_LT(expected, 1100.0);
}

// A multiplier takes one partial product per multiplier bit into buffers
// of 32: a width outside 1..32 is refused in every build type. At 40
// bits, fast_multiply overran its stack buffer instead.
TEST(Multiply, RejectsWidthsOutsideOneTo32) {
  const std::uint64_t ones = util::low_mask(40);
  for (const unsigned n : {0u, 33u, 40u, 64u}) {
    EXPECT_THROW((void)fast_multiply(ones, ones, n, ApproxConfig::exact(),
                                     em()),
                 std::invalid_argument)
        << "n=" << n;
    EXPECT_THROW((void)fast_multiply<false>(ones, ones, n,
                                            ApproxConfig::exact(), em()),
                 std::invalid_argument)
        << "n=" << n;
    EXPECT_THROW((void)word_ppg(ones, ones, n, 0), std::invalid_argument)
        << "n=" << n;
    EXPECT_THROW((void)inmemory_multiply(ones, ones, n, ApproxConfig::exact(),
                                         em()),
                 std::invalid_argument)
        << "n=" << n;
  }
  EXPECT_EQ(fast_multiply(ones, ones, 32, ApproxConfig::exact(), em()).product,
            util::low_mask(32) * util::low_mask(32));
  EXPECT_EQ(fast_multiply(1, 1, 1, ApproxConfig::exact(), em()).product, 1u);
}

}  // namespace
}  // namespace apim::arith
