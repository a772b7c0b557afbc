// Tests of the baseline models: prior in-memory adders (Fig. 6) and the
// analytic GPU model (Fig. 5 / Table 1).
#include <gtest/gtest.h>

#include "arith/latency_model.hpp"
#include "baseline/gpu_model.hpp"
#include "baseline/prior_adders.hpp"

namespace apim::baseline {
namespace {

TEST(TalatiAdder, SingleAddFormula) {
  EXPECT_EQ(TalatiAdder::add_cycles(16), 193u);
  EXPECT_EQ(TalatiAdder::add_cycles(32), 385u);
}

TEST(TalatiAdder, MultiAddGrowsLinearly) {
  const unsigned n = 16;
  const auto c8 = TalatiAdder::multi_add_cycles(8, n);
  const auto c16 = TalatiAdder::multi_add_cycles(16, n);
  const auto c32 = TalatiAdder::multi_add_cycles(32, n);
  EXPECT_GT(c16, c8);
  EXPECT_GT(c32, 2 * c16 - c8);  // Superlinear: widths grow too.
  EXPECT_EQ(TalatiAdder::multi_add_cycles(1, n), 0u);
  EXPECT_EQ(TalatiAdder::multi_add_cycles(0, n), 0u);
}

TEST(PcAdder, FasterThanTalatiButSlowerThanApim) {
  // The Figure 6 ordering: Talati [24] slowest, PC-Adder [25] in between,
  // APIM tree adder fastest (>= 2x over the next best in exact mode).
  for (unsigned n : {8u, 16u, 32u}) {
    const std::size_t m = n;  // N operands of N bits, as in Figure 6.
    const auto talati = TalatiAdder::multi_add_cycles(m, n);
    const auto pc = PcAdder::multi_add_cycles(m, n);
    const auto apim = arith::tree_add_cycles(m, n);
    EXPECT_LT(pc, talati) << "n=" << n;
    EXPECT_LT(apim, pc) << "n=" << n;
  }
  // The ">= 2x over the next best" headline holds once the tree's constant
  // serial tail is amortized (n >= 16 in our reproduction).
  for (unsigned n : {16u, 32u}) {
    const auto pc = PcAdder::multi_add_cycles(n, n);
    const auto apim = arith::tree_add_cycles(n, n);
    EXPECT_GE(static_cast<double>(pc) / static_cast<double>(apim), 2.0)
        << "n=" << n;
  }
}

TEST(PcAdder, ApproximateApimIsAtLeastSixTimesFaster) {
  // Paper Section 4.2: "APIM can be at least 6x faster with 99.9%
  // accuracy" — tree reduction plus a relaxed final add.
  const unsigned n = 32;
  const std::size_t m = 32;
  const unsigned final_width = n + 6;  // Survivor width bound.
  const auto apim_approx =
      arith::tree_reduce_cycles(m) +
      arith::final_add_cycles(final_width, /*m=*/24);
  const auto pc = PcAdder::multi_add_cycles(m, n);
  EXPECT_GE(static_cast<double>(pc) / static_cast<double>(apim_approx), 6.0);
}

TEST(PcAdder, ControllerAreaScalesWithArrays) {
  const auto one = PcAdder::controller_transistors(1, 64, 64);
  const auto many = PcAdder::controller_transistors(16, 64, 64);
  EXPECT_EQ(many, 16 * one);
}

TEST(GpuModel, MissRateSaturates) {
  const GpuModel gpu;
  EXPECT_NEAR(gpu.miss_rate(0.0), 0.0, 1e-12);
  EXPECT_LT(gpu.miss_rate(32e6), gpu.miss_rate(1e9));
  EXPECT_LT(gpu.miss_rate(1e9), 1.0);
  EXPECT_GT(gpu.miss_rate(100e9), 0.99);
}

TEST(GpuModel, CostScalesLinearlyInElementsAtFixedDataset) {
  const GpuModel gpu;
  const GpuAppProfile profile{10.0, 100.0};
  const GpuCost c1 = gpu.run(1e6, profile, 1e9);
  const GpuCost c2 = gpu.run(2e6, profile, 1e9);
  EXPECT_NEAR(c2.seconds / c1.seconds, 2.0, 1e-9);
  EXPECT_NEAR(c2.energy_pj / c1.energy_pj, 2.0, 1e-9);
}

TEST(GpuModel, LargeDatasetsAreMovementBound) {
  // Section 4.2's regimes: per-element cost grows with dataset size as the
  // miss rate rises, then saturates.
  const GpuModel gpu;
  const GpuAppProfile profile{10.0, 100.0};
  const double per_el_small =
      gpu.run(1e6, profile, 1e6).seconds;
  const double per_el_large =
      gpu.run(1e6, profile, 4e9).seconds;
  EXPECT_GT(per_el_large, 2.0 * per_el_small);
}

TEST(GpuModel, EdpIsEnergyTimesTime) {
  const GpuModel gpu;
  const GpuCost c = gpu.run(1e6, GpuAppProfile{}, 1e9);
  EXPECT_NEAR(c.edp_js(), c.energy_pj * 1e-12 * c.seconds, 1e-20);
}

}  // namespace
}  // namespace apim::baseline
