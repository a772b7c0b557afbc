// Tests of the shared full-adder NOR schedule at every level: the abstract
// table, the word-level evaluators, and the cell-level lane executor.
#include <gtest/gtest.h>

#include <vector>

#include "arith/fa_schedule.hpp"
#include "arith/inmemory_fa.hpp"
#include "arith/word_models.hpp"
#include "energy_counts_print.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

TEST(FaSchedule, TableShapeIsTwelveSteps) {
  EXPECT_EQ(kFaSchedule.size(), 12u);
  EXPECT_EQ(kFaScratchSlots, 12u);
  // Every non-input slot is produced exactly once.
  std::array<int, kFaSlotCount> produced{};
  for (const FaStep& s : kFaSchedule) {
    ASSERT_GE(s.arity, 1u);
    ASSERT_LE(s.arity, 3u);
    ++produced[s.dst];
  }
  for (unsigned slot = kSlotT1; slot < kFaSlotCount; ++slot)
    EXPECT_EQ(produced[slot], 1) << "slot " << slot;
  // Inputs are never overwritten.
  EXPECT_EQ(produced[kSlotA], 0);
  EXPECT_EQ(produced[kSlotB], 0);
  EXPECT_EQ(produced[kSlotC], 0);
}

TEST(FaSchedule, NoStepReadsASlotProducedLater) {
  std::array<bool, kFaSlotCount> ready{};
  ready[kSlotA] = ready[kSlotB] = ready[kSlotC] = true;
  for (const FaStep& s : kFaSchedule) {
    for (unsigned i = 0; i < s.arity; ++i)
      EXPECT_TRUE(ready[s.inputs[i]])
          << "step producing slot " << s.dst << " reads unready slot "
          << s.inputs[i];
    ready[s.dst] = true;
  }
}

TEST(FaSchedule, ReferenceMatchesArithmetic) {
  for (unsigned v = 0; v < 8; ++v) {
    const std::uint64_t a = (v >> 2) & 1, b = (v >> 1) & 1, c = v & 1;
    const FaBits r = fa_reference(a, b, c);
    EXPECT_EQ(r.sum + 2 * r.carry, a + b + c);
  }
}

TEST(WordFaBit, FullTruthTable) {
  for (unsigned v = 0; v < 8; ++v) {
    const std::uint64_t a = (v >> 2) & 1, b = (v >> 1) & 1, c = v & 1;
    const FaBitResult r = word_fa_bit(a, b, c);
    const FaBits expect = fa_reference(a, b, c);
    EXPECT_EQ(r.sum, expect.sum) << "abc=" << v;
    EXPECT_EQ(r.carry, expect.carry) << "abc=" << v;
    EXPECT_EQ(r.nor.input_on + r.nor.input_off, kFaNorInputs) << "abc=" << v;
  }
}

// The closed-form counts are word_fa_bit's: the per-triple tables match
// the schedule evaluated on each of the 8 triples, and fa_counts over a
// word equals the per-bit sum.
TEST(WordFaBit, TabulatedCountsMatchTheSchedule) {
  for (unsigned v = 0; v < 8; ++v) {
    const std::uint64_t a = (v >> 2) & 1, b = (v >> 1) & 1, c = v & 1;
    const FaBitResult r = word_fa_bit(a, b, c);
    const std::uint64_t ones = a + b + c;
    EXPECT_EQ(r.nor.input_on, kFaInputsOn[ones]) << "abc=" << v;
    EXPECT_EQ(r.nor.input_off, kFaNorInputs - kFaInputsOn[ones])
        << "abc=" << v;
    EXPECT_EQ(r.nor.switches, kFaSwitches[ones]) << "abc=" << v;
    EXPECT_EQ(r.nor, fa_counts(a, b, c, 1)) << "abc=" << v;
  }
  util::Xoshiro256 rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
    const std::uint64_t a = rng.next(), b = rng.next() & rng.next(),
                        c = rng.next() | rng.next();
    device::EnergyCounts per_bit;
    for (unsigned i = 0; i < width; ++i)
      per_bit += word_fa_bit(util::bit(a, i), util::bit(b, i),
                             util::bit(c, i)).nor;
    ASSERT_EQ(fa_counts(a, b, c, width), per_bit) << "width=" << width;
  }
}

TEST(WordFaStage, MatchesCarrySaveSemantics) {
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(48));
    const std::uint64_t mask = util::low_mask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const std::uint64_t c = rng.next() & mask;
    const FaWordResult r = word_fa_stage(a, b, c, width);
    const util::CarrySave expect = util::csa3(a, b, c);
    EXPECT_EQ(r.sum, expect.sum & mask);
    EXPECT_EQ(r.carry, expect.carry);
    EXPECT_EQ(r.sum + r.carry, a + b + c);  // 3:2 invariant.
  }
}

TEST(WordFaStage, EnergyScalesWithWidth) {
  const auto& em = device::EnergyModel::paper_defaults();
  const FaWordResult narrow = word_fa_stage(0x5, 0x3, 0x6, 4);
  const FaWordResult wide = word_fa_stage(0x5, 0x3, 0x6, 32);
  EXPECT_GT(em.energy_pj(wide.nor), em.energy_pj(narrow.nor));
}

// Cell-level lane execution must reproduce the same truth table.
TEST(FaLane, SerialLaneTruthTableOnCells) {
  const auto& em = device::EnergyModel::paper_defaults();
  for (unsigned v = 0; v < 8; ++v) {
    BlockedCrossbar xbar(CrossbarConfig{1, 16, 8});
    magic::MagicEngine engine(xbar, em);
    const CellAddr a{0, 0, 0}, b{0, 1, 0}, c{0, 2, 0};
    xbar.set(a, ((v >> 2) & 1) != 0);
    xbar.set(b, ((v >> 1) & 1) != 0);
    xbar.set(c, (v & 1) != 0);
    const FaLaneMap lane = make_fa_lane(a, b, c, 0, /*scratch_row=*/3,
                                        /*col=*/0, /*cout_col_shift=*/0);
    std::vector<CellAddr> init;
    append_lane_init_cells(lane, init);
    engine.init_cells(init);
    execute_fa_lane_serial(engine, lane);

    const FaBits expect =
        fa_reference((v >> 2) & 1, (v >> 1) & 1, v & 1);
    EXPECT_EQ(xbar.get(lane.cell(kSlotS)), expect.sum != 0) << v;
    EXPECT_EQ(xbar.get(lane.cell(kSlotCout)), expect.carry != 0) << v;
    EXPECT_EQ(engine.cycles(), 13u);  // 1 init + 12 NOR steps.
  }
}

TEST(FaLane, ParallelLanesCostTwelveCyclesForAnyWidth) {
  const auto& em = device::EnergyModel::paper_defaults();
  for (unsigned width : {4u, 16u, 32u}) {
    BlockedCrossbar xbar(CrossbarConfig{1, 16, 64});
    magic::MagicEngine engine(xbar, em);
    util::Xoshiro256 rng(width);
    const std::uint64_t mask = util::low_mask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const std::uint64_t c = rng.next() & mask;
    xbar.write_word(CellAddr{0, 0, 0}, width, a);
    xbar.write_word(CellAddr{0, 1, 0}, width, b);
    xbar.write_word(CellAddr{0, 2, 0}, width, c);

    std::vector<FaLaneMap> lanes;
    std::vector<CellAddr> init;
    for (unsigned i = 0; i < width; ++i) {
      lanes.push_back(make_fa_lane(CellAddr{0, 0, i}, CellAddr{0, 1, i},
                                   CellAddr{0, 2, i}, 0, 3, i,
                                   /*cout_col_shift=*/1));
      append_lane_init_cells(lanes.back(), init);
    }
    engine.init_cells(init);
    execute_fa_lanes_parallel(engine, lanes);
    EXPECT_EQ(engine.cycles(), 13u) << "width " << width;

    // Collect outputs: sum at lane columns, carry shifted one left.
    std::uint64_t sum = 0, carry = 0;
    for (unsigned i = 0; i < width; ++i) {
      if (xbar.get(lanes[i].cell(kSlotS))) sum |= std::uint64_t{1} << i;
      if (xbar.get(lanes[i].cell(kSlotCout)))
        carry |= std::uint64_t{1} << (i + 1);
    }
    EXPECT_EQ(sum + carry, a + b + c);
  }
}

TEST(FaLane, LaneMapPlacesCoutShifted) {
  const FaLaneMap lane = make_fa_lane(CellAddr{0, 0, 5}, CellAddr{0, 1, 5},
                                      CellAddr{0, 2, 5}, 1, 10, 5, 1);
  EXPECT_EQ(lane.cell(kSlotCout).col, 6u);
  EXPECT_EQ(lane.cell(kSlotS).col, 5u);
  EXPECT_EQ(lane.cell(kSlotT1).block, 1u);
  EXPECT_EQ(lane.cell(kSlotT1).row, 10u);
  EXPECT_EQ(lane.cell(kSlotS).row, 10u + (kSlotS - kSlotT1));
}

}  // namespace
}  // namespace apim::arith
