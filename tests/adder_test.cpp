// Tests of the in-memory adders (bit-level and word-level): functional
// correctness and the paper's cycle formulas (12N+1 serial, 13-cycle CSA,
// 13-per-stage tree).
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

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

// ------------------------------------------------------------ serial add --

TEST(SerialAdd, WordModelComputesExactSums) {
  util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(48));
    const std::uint64_t mask = util::low_mask(n);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const WordUnitResult r = word_serial_add(a, b, n);
    EXPECT_EQ(r.value, a + b) << "n=" << n;
    EXPECT_EQ(r.cycles, serial_add_cycles(n));
  }
}

TEST(SerialAdd, EngineComputesExactSums) {
  util::Xoshiro256 rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(32));
    const std::uint64_t mask = util::low_mask(n);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const InMemoryResult r = inmemory_serial_add(a, b, n, em());
    EXPECT_EQ(r.value, a + b) << "n=" << n;
    EXPECT_EQ(r.cycles, serial_add_cycles(n));
    EXPECT_GT(em().energy_pj(r.energy), 0.0);
  }
}

TEST(SerialAdd, PaperCycleFormula) {
  // Section 2: "This design takes 12N+1 cycles to add two N-bit numbers."
  EXPECT_EQ(serial_add_cycles(1), 13u);
  EXPECT_EQ(serial_add_cycles(16), 193u);
  EXPECT_EQ(serial_add_cycles(32), 385u);
  const InMemoryResult r = inmemory_serial_add(0x1234, 0x5678, 16, em());
  EXPECT_EQ(r.cycles, 193u);
}

TEST(SerialAdd, CarryOutAtFullWidth) {
  const unsigned n = 8;
  const InMemoryResult r = inmemory_serial_add(0xFF, 0x01, n, em());
  EXPECT_EQ(r.value, 0x100u);
}

// -------------------------------------------------------------------- csa --

TEST(Csa, ThirteenCyclesIndependentOfWidth) {
  // Section 3.2: "The latency of this 3:2 reduction ... is same as that of
  // a 1-bit addition (i.e., 13 cycles) irrespective of the size of the
  // operands."
  for (unsigned width : {4u, 8u, 16u, 32u, 48u}) {
    const CsaOutcome r = inmemory_csa(0x3, 0x5, 0x6, width, em());
    EXPECT_EQ(r.cycles, 13u) << "width " << width;
  }
}

TEST(Csa, PreservesArithmeticSum) {
  util::Xoshiro256 rng(33);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned width = 2 + static_cast<unsigned>(rng.next_below(30));
    const std::uint64_t mask = util::low_mask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const std::uint64_t c = rng.next() & mask;
    const CsaOutcome r = inmemory_csa(a, b, c, width, em());
    EXPECT_EQ(r.sum + r.carry, a + b + c);
  }
}

TEST(Csa, WiderIsNotSlowerButCostsMoreEnergy) {
  const CsaOutcome narrow = inmemory_csa(1, 2, 3, 4, em());
  const CsaOutcome wide = inmemory_csa(1, 2, 3, 48, em());
  EXPECT_EQ(narrow.cycles, wide.cycles);
  EXPECT_GT(em().energy_pj(wide.energy), em().energy_pj(narrow.energy));
}

// ------------------------------------------------------------- tree adder --

std::tuple<std::vector<std::uint64_t>, std::vector<unsigned>, std::uint64_t>
random_operands(util::Xoshiro256& rng, std::size_t count, unsigned n) {
  std::vector<std::uint64_t> values;
  std::vector<unsigned> widths;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = rng.next() & util::low_mask(n);
    values.push_back(v);
    widths.push_back(n);
    total += v;
  }
  return {values, widths, total};
}

unsigned cap_for(std::size_t count, unsigned n) {
  return n + util::bit_width(static_cast<std::uint64_t>(count) - 1);
}

TEST(TreeAdd, WordModelSumsManyOperands) {
  util::Xoshiro256 rng(34);
  // 100 operands take fast_tree_add's heap arrays.
  for (std::size_t count : {2u, 3u, 5u, 9u, 16u, 27u, 100u}) {
    const unsigned n = 16;
    auto [values, widths, total] = random_operands(rng, count, n);
    const AddOutcome r =
        fast_tree_add(values, widths, cap_for(count, n), em());
    EXPECT_EQ(r.sum, total) << "count=" << count;
  }
}

TEST(TreeAdd, WordModelRejectsEmptyOrMismatchedOperands) {
  const std::vector<std::uint64_t> values = {1, 2, 3};
  const std::vector<unsigned> widths = {2, 2};
  EXPECT_THROW((void)fast_tree_add(values, widths, 8, em()),
               std::invalid_argument);
  EXPECT_THROW((void)fast_tree_add<false>({}, {}, 8, em()),
               std::invalid_argument);
}

TEST(TreeAdd, EngineSumsManyOperands) {
  util::Xoshiro256 rng(35);
  for (std::size_t count : {3u, 4u, 9u, 12u}) {
    const unsigned n = 12;
    auto [values, widths, total] = random_operands(rng, count, n);
    const InMemoryResult r =
        inmemory_tree_add(values, widths, cap_for(count, n), em());
    EXPECT_EQ(r.value, total) << "count=" << count;
  }
}

TEST(TreeAdd, NineOperandLatencyMatchesPaperStructure) {
  // 9 operands: 4 tree stages (13 cycles each) + one serial add of the two
  // survivors (width n+4 under our safe one-bit-per-stage growth rule; the
  // paper quotes n+3).
  util::Xoshiro256 rng(36);
  const unsigned n = 16;
  auto [values, widths, total] = random_operands(rng, 9, n);
  const InMemoryResult r = inmemory_tree_add(values, widths, n + 4, em());
  EXPECT_EQ(r.value, total);
  EXPECT_EQ(r.cycles, 4 * 13 + serial_add_cycles(n + 4));
}

TEST(TreeAdd, DefaultLawCapsTheFinalWidth) {
  // Past 9 operands the tree runs more stages than the sum has extra bits:
  // 16 operands reduce in 6 stages, 27 in 7, yet their sums need only
  // n + 4 and n + 5 bits. tree_add_cycles' default final width is capped
  // there, as the engine's final add is.
  util::Xoshiro256 rng(44);
  const unsigned n = 16;
  for (std::size_t count : {16u, 27u}) {
    auto [values, widths, total] = random_operands(rng, count, n);
    const InMemoryResult r =
        inmemory_tree_add(values, widths, cap_for(count, n), em());
    EXPECT_EQ(r.value, total) << "count=" << count;
    EXPECT_EQ(r.cycles, tree_add_cycles(count, n)) << "count=" << count;
  }
}

TEST(TreeAdd, ThreeOperandsMatchPaperTotal) {
  // Section 3.2: 3 operands cost 13 + (12N + 1) = 12N + 14 cycles.
  util::Xoshiro256 rng(37);
  const unsigned n = 16;
  auto [values, widths, total] = random_operands(rng, 3, n);
  const InMemoryResult r = inmemory_tree_add(values, widths, n + 2, em());
  EXPECT_EQ(r.value, total);
  EXPECT_EQ(r.cycles, 12u * (n + 1) + 14u);  // Survivors are (n+1)-bit.
}

TEST(TreeAdd, TreeBeatsSerialChainForManyOperands) {
  // The headline property behind Figure 6: tree reduction beats chained
  // serial additions, increasingly so with operand count.
  const unsigned n = 16;
  for (std::size_t count : {9u, 16u, 32u}) {
    const util::Cycles tree = tree_add_cycles(count, n);
    // Chained serial: (M-1) additions of growing width; lower-bound with
    // width n (favours the serial design).
    const util::Cycles serial =
        static_cast<util::Cycles>(count - 1) * serial_add_cycles(n);
    EXPECT_LT(tree, serial) << "count=" << count;
  }
}

TEST(TreeAdd, MixedWidthOperands) {
  const std::vector<std::uint64_t> values{0xFFFF, 0xF, 0x3FF, 0x1, 0x7F};
  const std::vector<unsigned> widths{16, 4, 10, 1, 7};
  std::uint64_t total = 0;
  for (auto v : values) total += v;
  const InMemoryResult engine_r = inmemory_tree_add(values, widths, 20, em());
  const AddOutcome fast_r = fast_tree_add(values, widths, 20, em());
  EXPECT_EQ(engine_r.value, total);
  EXPECT_EQ(fast_r.sum, total);
}

// -------------------------------------------------------- relaxed adder ----

TEST(RelaxedAdd, ExactWhenNoRelaxBits) {
  util::Xoshiro256 rng(38);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 8 + static_cast<unsigned>(rng.next_below(24));
    const std::uint64_t mask = util::low_mask(n);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    EXPECT_EQ(approximate_add_value(a, b, n, 0), a + b);
  }
}

TEST(RelaxedAdd, CarriesStayExactSoHighBitsAreRight) {
  util::Xoshiro256 rng(39);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned n = 32;
    const unsigned m = 4 * (1 + static_cast<unsigned>(rng.next_below(8)));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const std::uint64_t approx = approximate_add_value(a, b, n, m);
    const std::uint64_t exact = a + b;
    // Bits >= m agree exactly because every carry is exact.
    EXPECT_EQ(approx >> m, exact >> m) << "m=" << m;
    // Error is bounded by the relaxed region.
    const auto diff = static_cast<std::int64_t>(approx) -
                      static_cast<std::int64_t>(exact);
    EXPECT_LT(std::abs(diff), std::int64_t{1} << m);
  }
}

TEST(RelaxedAdd, EngineMatchesReferenceSemantics) {
  util::Xoshiro256 rng(40);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned n = 16;
    const unsigned m = static_cast<unsigned>(rng.next_below(n + 1));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const InMemoryResult r = inmemory_relaxed_add(a, b, n, m, em());
    EXPECT_EQ(r.value, approximate_add_value(a, b, n, m))
        << "a=" << a << " b=" << b << " m=" << m;
    EXPECT_EQ(r.cycles, final_add_cycles(n, m));
  }
}

TEST(RelaxedAdd, LatencyFormula13kPlus2mPlus1) {
  EXPECT_EQ(final_add_cycles(64, 0), 13u * 64);
  EXPECT_EQ(final_add_cycles(64, 64), 2u * 64 + 1);
  EXPECT_EQ(final_add_cycles(64, 16), 13u * 48 + 2u * 16 + 1);
  // m beyond the width clamps.
  EXPECT_EQ(final_add_cycles(16, 99), 2u * 16 + 1);
}

TEST(RelaxedAdd, FullRelaxErrorMatches25PercentCaseRate) {
  // Section 3.4: S = NOT(Cout) is wrong for (0,0,0) and (1,1,1) — 2 of 8
  // input cases. With random bits the per-bit wrongness rate is 25%.
  util::Xoshiro256 rng(41);
  const unsigned n = 32;
  std::size_t wrong_bits = 0, total_bits = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const std::uint64_t approx =
        approximate_add_value(a, b, n, n) & util::low_mask(n);
    const std::uint64_t exact = (a + b) & util::low_mask(n);
    wrong_bits += static_cast<std::size_t>(
        util::popcount(approx ^ exact));
    total_bits += n;
  }
  const double rate =
      static_cast<double>(wrong_bits) / static_cast<double>(total_bits);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

// --------------------------------------------------------- standalone add --

TEST(FastAdd, DispatchesSerialVsRelaxed) {
  const AddOutcome exact = fast_add(100, 200, 16, 0, em());
  EXPECT_EQ(exact.sum, 300u);
  EXPECT_EQ(exact.cycles, serial_add_cycles(16));
  const AddOutcome relaxed = fast_add(100, 200, 16, 8, em());
  EXPECT_EQ(relaxed.cycles, final_add_cycles(16, 8));
  // High bits still exact.
  EXPECT_EQ(relaxed.sum >> 8, 300u >> 8);
}

TEST(LatencyModel, StandaloneAddFormulas) {
  EXPECT_EQ(standalone_add_cycles(32, 0), 385u);
  EXPECT_EQ(standalone_add_cycles(32, 32), 65u);
  // Relaxing 2 of 32 bits would take 395 cycles: the serial adder runs.
  EXPECT_EQ(standalone_add_cycles(32, 2), 385u);
  EXPECT_EQ(standalone_add_cycles(32, 3), 384u);
}

TEST(LatencyModel, RelaxEngagesOnlyWhereItIsFaster) {
  // The relaxed adder takes 13n - 11m + 1 cycles against the serial
  // 12n + 1, so relaxing pays only for m > n / 11. At n = 22, m = 2 both
  // take 265 cycles, and the tie keeps the exact adder.
  EXPECT_EQ(profitable_add_relax(32, 2), 0u);
  EXPECT_EQ(profitable_add_relax(32, 3), 3u);
  EXPECT_EQ(final_add_cycles(22, 2), serial_add_cycles(22));
  EXPECT_EQ(profitable_add_relax(22, 2), 0u);
  EXPECT_EQ(profitable_add_relax(22, 3), 3u);
  util::Xoshiro256 rng(45);
  for (int t = 0; t < 64; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(22);
    const std::uint64_t b = rng.next() & util::low_mask(22);
    ASSERT_EQ(fast_add(a, b, 22, 2, em()).sum, a + b) << a << " + " << b;
  }
}

}  // namespace
}  // namespace apim::arith
