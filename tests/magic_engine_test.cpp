// Unit tests for the MAGIC engine: NOR semantics, cycle accounting and
// energy bookkeeping.
#include <gtest/gtest.h>

#include <vector>

#include "energy_counts_print.hpp"
#include "magic/engine.hpp"

namespace apim::magic {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

class MagicEngineTest : public ::testing::Test {
 protected:
  MagicEngineTest()
      : xbar_(CrossbarConfig{3, 8, 16}),
        engine_(xbar_, device::EnergyModel::paper_defaults()) {}

  BlockedCrossbar xbar_;
  MagicEngine engine_;
};

TEST_F(MagicEngineTest, NorTruthTableTwoInputs) {
  const CellAddr a{0, 0, 0}, b{0, 0, 1};
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      xbar_.set(a, av != 0);
      xbar_.set(b, bv != 0);
      const CellAddr dst{0, 0, 2};
      std::vector<CellAddr> init{dst};
      engine_.init_cells(init);
      std::vector<CellAddr> ins{a, b};
      engine_.nor(dst, ins);
      EXPECT_EQ(xbar_.get(dst), !(av || bv)) << av << "," << bv;
    }
  }
}

TEST_F(MagicEngineTest, NorThreeInputs) {
  const CellAddr a{0, 0, 0}, b{0, 0, 1}, c{0, 0, 2}, dst{0, 0, 3};
  xbar_.set(c, true);
  std::vector<CellAddr> init{dst};
  engine_.init_cells(init);
  std::vector<CellAddr> ins{a, b, c};
  engine_.nor(dst, ins);
  EXPECT_FALSE(xbar_.get(dst));
}

TEST_F(MagicEngineTest, InitChargesOneCycleForWholeBatch) {
  std::vector<CellAddr> cells;
  for (unsigned i = 0; i < 10; ++i) cells.push_back(CellAddr{0, 1, i});
  engine_.init_cells(cells);
  EXPECT_EQ(engine_.cycles(), 1u);
  EXPECT_EQ(engine_.stats().energy.init, 10u);
  for (const auto& c : cells) EXPECT_TRUE(xbar_.get(c));
}

TEST_F(MagicEngineTest, OverlappedInitChargesNoCycle) {
  std::vector<CellAddr> cells{CellAddr{0, 1, 0}};
  engine_.init_cells(cells, /*overlapped=*/true);
  EXPECT_EQ(engine_.cycles(), 0u);
  EXPECT_GT(engine_.energy_pj(), 0.0);  // Energy still charged.
}

TEST_F(MagicEngineTest, NorParallelSharesOneCycle) {
  std::vector<CellAddr> init;
  std::vector<NorOp> ops;
  for (unsigned i = 0; i < 8; ++i) {
    const CellAddr dst{0, 2, i};
    init.push_back(dst);
    ops.push_back(NorOp{dst, {CellAddr{0, 0, i}}});
  }
  engine_.init_cells(init);
  engine_.nor_parallel(ops);
  EXPECT_EQ(engine_.cycles(), 2u);  // 1 init + 1 parallel NOR.
  EXPECT_EQ(engine_.stats().nor_ops, 8u);
}

TEST_F(MagicEngineTest, ParallelNotInvertsRow) {
  // Row 0 holds a pattern; NOT it into row 1.
  xbar_.write_word(CellAddr{0, 0, 0}, 8, 0b10110010);
  std::vector<CellAddr> init;
  std::vector<NorOp> ops;
  for (unsigned i = 0; i < 8; ++i) {
    const CellAddr dst{0, 1, i};
    init.push_back(dst);
    ops.push_back(NorOp{dst, {CellAddr{0, 0, i}}});
  }
  engine_.init_cells(init);
  engine_.nor_parallel(ops);
  EXPECT_EQ(engine_.peek_word(CellAddr{0, 1, 0}, 8), 0b01001101u);
}

TEST_F(MagicEngineTest, ReadBitChargesEnergyNotCycles) {
  xbar_.set(CellAddr{0, 0, 0}, true);
  EXPECT_TRUE(engine_.read_bit(CellAddr{0, 0, 0}));
  EXPECT_EQ(engine_.cycles(), 0u);
  EXPECT_GT(engine_.energy_pj(), 0.0);
  EXPECT_EQ(engine_.stats().energy.reads, 1u);
}

TEST_F(MagicEngineTest, SaMajorityComputesCarry) {
  // Three cells on one bitline of one block.
  xbar_.set(CellAddr{1, 0, 3}, true);
  xbar_.set(CellAddr{1, 1, 3}, true);
  EXPECT_TRUE(engine_.sa_majority(CellAddr{1, 0, 3}, CellAddr{1, 1, 3},
                                  CellAddr{1, 2, 3}));
  EXPECT_FALSE(engine_.sa_majority(CellAddr{1, 0, 3}, CellAddr{1, 2, 3},
                                   CellAddr{1, 3, 3}));
  EXPECT_EQ(engine_.cycles(), 2u);  // One cycle per MAJ.
  EXPECT_EQ(engine_.stats().energy.majority, 2u);
}

TEST_F(MagicEngineTest, WriteWordOneCycle) {
  engine_.write_word(CellAddr{0, 3, 0}, 12, 0xABC);
  EXPECT_EQ(engine_.cycles(), 1u);
  EXPECT_EQ(engine_.stats().energy.writes, 12u);
  EXPECT_EQ(engine_.stats().energy.switches, 7u);  // The cells that flip.
  EXPECT_EQ(engine_.peek_word(CellAddr{0, 3, 0}, 12), 0xABCu);
}

TEST_F(MagicEngineTest, CrossBlockNorChargesInterconnect) {
  xbar_.set(CellAddr{0, 0, 0}, true);
  std::vector<CellAddr> init{CellAddr{1, 0, 0}};
  engine_.init_cells(init);
  std::vector<CellAddr> ins{CellAddr{0, 0, 0}};
  engine_.nor(CellAddr{1, 0, 0}, ins);
  EXPECT_EQ(engine_.stats().energy.interconnect_bits, 1u);
  // Two blocks apart -> two hops.
  std::vector<CellAddr> init2{CellAddr{2, 0, 1}};
  engine_.init_cells(init2);
  engine_.nor(CellAddr{2, 0, 1}, ins);
  EXPECT_EQ(engine_.stats().energy.interconnect_bits, 3u);
}

TEST_F(MagicEngineTest, ChargeInterconnectAddsEnergyOnly) {
  const double before = engine_.energy_pj();
  engine_.charge_interconnect(10);
  EXPECT_EQ(engine_.cycles(), 0u);
  EXPECT_GT(engine_.energy_pj(), before);
  EXPECT_EQ(engine_.stats().energy.interconnect_bits, 10u);
}

TEST_F(MagicEngineTest, EnergyIncludesPerCycleOverhead) {
  const auto& em = engine_.energy_model();
  engine_.add_idle_cycles(100);
  EXPECT_NEAR(engine_.energy_pj(), 100.0 * em.e_cycle_overhead_pj, 1e-12);
}

TEST_F(MagicEngineTest, ResetStatsPreservesCells) {
  engine_.write_word(CellAddr{0, 0, 0}, 4, 0xF);
  engine_.reset_stats();
  EXPECT_EQ(engine_.cycles(), 0u);
  EXPECT_EQ(engine_.peek_word(CellAddr{0, 0, 0}, 4), 0xFu);
}

TEST_F(MagicEngineTest, NorOutputSwitchCostsMoreThanNoSwitch) {
  // Result 0 (input high) switches the output cell; result 1 does not.
  const auto& em = engine_.energy_model();
  xbar_.set(CellAddr{0, 0, 0}, true);

  std::vector<CellAddr> init{CellAddr{0, 4, 0}};
  engine_.init_cells(init, true);
  const device::EnergyCounts e0 = engine_.stats().energy;
  std::vector<CellAddr> high{CellAddr{0, 0, 0}};
  engine_.nor(CellAddr{0, 4, 0}, high);
  const device::EnergyCounts e_switch = engine_.stats().energy - e0;
  EXPECT_EQ(e_switch, (device::EnergyCounts{.input_on = 1, .switches = 1}));

  std::vector<CellAddr> init2{CellAddr{0, 4, 1}};
  engine_.init_cells(init2, true);
  const device::EnergyCounts e1 = engine_.stats().energy;
  std::vector<CellAddr> low{CellAddr{0, 0, 1}};  // Holds 0.
  engine_.nor(CellAddr{0, 4, 1}, low);
  const device::EnergyCounts e_hold = engine_.stats().energy - e1;
  EXPECT_EQ(e_hold, (device::EnergyCounts{.input_off = 1}));

  // Different input states change conduction, but the switch term must
  // dominate the difference.
  EXPECT_GT(em.energy_pj(e_switch) + em.e_input_off_pj, em.energy_pj(e_hold));
}

}  // namespace
}  // namespace apim::magic
