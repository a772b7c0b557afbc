// Tests of the chip-organization model and the quantization helpers.
#include <gtest/gtest.h>

#include "core/chip.hpp"
#include "core/quantize.hpp"

namespace apim::core {
namespace {

TEST(Chip, DefaultGeometryHoldsAGigabyteAndMatchesCalibratedLanes) {
  const ApimChip chip;
  EXPECT_GE(chip.capacity_bytes(), 1024.0 * 1024 * 1024);
  EXPECT_LT(chip.capacity_bytes(), 8.0 * 1024 * 1024 * 1024);
  // The default ApimConfig lane count is derived from this organization.
  EXPECT_EQ(chip.parallel_lanes(), ApimConfig{}.parallel_lanes);
}

TEST(Chip, ConfigCarriesLaneCount) {
  ChipGeometry g;
  g.banks = 4;
  g.active_tiles_per_bank = 10;
  const ApimChip chip(g);
  EXPECT_EQ(chip.make_config().parallel_lanes, 40u);
}

TEST(Chip, ProcessingAreaOverhead) {
  // 1 data + 2 processing blocks: two thirds of the cells serve compute.
  const ApimChip chip;
  EXPECT_NEAR(chip.processing_area_overhead(), 2.0 / 3.0, 1e-12);
  ChipGeometry flat;
  flat.blocks_per_tile = 2;
  EXPECT_NEAR(ApimChip(flat).processing_area_overhead(), 0.5, 1e-12);
}

TEST(Chip, CellCountScalesWithGeometry) {
  ChipGeometry g;
  const double base = ApimChip(g).total_cells();
  g.banks *= 2;
  EXPECT_NEAR(ApimChip(g).total_cells(), 2.0 * base, 1.0);
}

TEST(Quantize, ChooseFormatCoversRange) {
  // Pure fractions get all bits as fraction.
  const auto frac = choose_format(0.9, 32);
  EXPECT_EQ(frac.integer_bits, 0u);
  EXPECT_EQ(frac.frac_bits, 32u);
  // Pixel-scale values.
  const auto pixel = choose_format(255.0, 32);
  EXPECT_EQ(pixel.integer_bits, 8u);
  EXPECT_GE(pixel.max_value(), 255.0);
  // Larger ranges shrink the fraction.
  const auto big = choose_format(100000.0, 32);
  EXPECT_EQ(big.integer_bits, 17u);
}

TEST(Quantize, RoundTripAccuracyWithinHalfLsb) {
  const auto fmt = choose_format(1.0, 32);
  const std::vector<double> values{0.125, -0.5, 0.9999, -0.0001, 0.0};
  const auto raws = quantize(values, fmt);
  const double half_lsb = 0.5 / fmt.scale();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double back =
        util::from_fixed(util::fixed_from_raw(raws[i], fmt), fmt);
    EXPECT_NEAR(back, values[i], 2.0 * half_lsb) << i;
  }
}

}  // namespace
}  // namespace apim::core
