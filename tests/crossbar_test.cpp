// Unit tests for the blocked crossbar substrate: blocks, interconnects,
// decoders, sense amplifiers and the shared-controller crossbar.
#include <gtest/gtest.h>

#include <stdexcept>

#include "crossbar/crossbar.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::crossbar {
namespace {

TEST(Block, SetGetRoundTrip) {
  CrossbarBlock b(4, 8);
  EXPECT_FALSE(b.get(2, 3));
  EXPECT_TRUE(b.set(2, 3, true));   // 0 -> 1 switches.
  EXPECT_TRUE(b.get(2, 3));
  EXPECT_FALSE(b.set(2, 3, true));  // Same value: no switch.
  EXPECT_TRUE(b.set(2, 3, false));
}

TEST(Block, WriteCountersTrackSwitches) {
  CrossbarBlock b(2, 8);
  b.set(0, 0, true);
  b.set(0, 0, true);
  b.set(0, 0, false);
  EXPECT_EQ(b.total_writes(), 3u);
  EXPECT_EQ(b.total_switches(), 2u);
}

TEST(Block, WordRoundTripLittleEndian) {
  CrossbarBlock b(2, 40);
  b.write_word(1, 3, 16, 0xBEEF);
  EXPECT_EQ(b.read_word(1, 3, 16), 0xBEEFu);
  // Bit 0 of the value lands at the starting column.
  EXPECT_EQ(b.get(1, 3), (0xBEEF & 1) != 0);
}

TEST(Block, WriteWordReportsFlips) {
  CrossbarBlock b(1, 16);
  EXPECT_EQ(b.write_word(0, 0, 8, 0xFF), 8u);
  EXPECT_EQ(b.write_word(0, 0, 8, 0xF0), 4u);
}

TEST(Interconnect, RoutesWithShift) {
  Interconnect ic(16);
  EXPECT_EQ(ic.route(5), 5);
  ic.set_shift(3);
  EXPECT_EQ(ic.route(5), 8);
  ic.set_shift(-2);
  EXPECT_EQ(ic.route(5), 3);
}

TEST(Interconnect, OutOfRangeLinesAreNotDriven) {
  Interconnect ic(8);
  ic.set_shift(4);
  EXPECT_EQ(ic.route(6), -1);
  ic.set_shift(-4);
  EXPECT_EQ(ic.route(2), -1);
}

TEST(Interconnect, ReverseRouteInvertsShift) {
  Interconnect ic(16);
  ic.set_shift(5);
  for (std::size_t col = 0; col < 11; ++col) {
    const auto out = ic.route(col);
    ASSERT_GE(out, 0);
    EXPECT_EQ(ic.route_reverse(static_cast<std::size_t>(out)),
              static_cast<std::int64_t>(col));
  }
}

TEST(Interconnect, CountsReconfigurationsOnlyOnChange) {
  Interconnect ic(8);
  ic.set_shift(1);
  ic.set_shift(1);  // No-op.
  ic.set_shift(2);
  EXPECT_EQ(ic.reconfigurations(), 2u);
}

TEST(Decoder, CountsActivations) {
  Decoder d(64);
  d.activate(0);
  d.activate(63);
  EXPECT_EQ(d.activations(), 2u);
  EXPECT_GT(d.estimated_transistors(), 64u);
}

TEST(Decoder, RejectsZeroLinesInEveryBuildType) {
  EXPECT_THROW(Decoder(0), std::invalid_argument);
}

TEST(SenseAmp, ReadAndMajority) {
  CrossbarBlock b(4, 4);
  SenseAmp sa;
  b.set(0, 2, true);
  b.set(1, 2, true);
  EXPECT_TRUE(sa.read(b, 0, 2));
  EXPECT_FALSE(sa.read(b, 3, 2));
  // Two of three cells high -> majority trips.
  EXPECT_TRUE(sa.majority(b, 2, 0, 1, 3));
  // One of three -> below the 2-of-3 reference.
  EXPECT_FALSE(sa.majority(b, 2, 0, 3, 3));
  EXPECT_EQ(sa.reads(), 2u);
  EXPECT_EQ(sa.majority_ops(), 2u);
}

TEST(BlockedCrossbar, GeometryAndBlockIndependence) {
  BlockedCrossbar xb(CrossbarConfig{3, 8, 16});
  EXPECT_EQ(xb.block_count(), 3u);
  xb.set(CellAddr{0, 1, 1}, true);
  EXPECT_TRUE(xb.get(CellAddr{0, 1, 1}));
  EXPECT_FALSE(xb.get(CellAddr{1, 1, 1}));  // Blocks are distinct arrays.
  EXPECT_FALSE(xb.get(CellAddr{2, 1, 1}));
}

TEST(BlockedCrossbar, WordAccess) {
  BlockedCrossbar xb(CrossbarConfig{2, 4, 40});
  xb.write_word(CellAddr{1, 2, 4}, 32, 0xDEADBEEF);
  EXPECT_EQ(xb.read_word(CellAddr{1, 2, 4}, 32), 0xDEADBEEFu);
}

TEST(BlockedCrossbar, RouteColumnThroughChain) {
  BlockedCrossbar xb(CrossbarConfig{3, 4, 32});
  xb.interconnect(0).set_shift(2);
  xb.interconnect(1).set_shift(3);
  EXPECT_EQ(xb.route_column(0, 1, 10), 12);
  EXPECT_EQ(xb.route_column(0, 2, 10), 15);  // Both hops accumulate.
  EXPECT_EQ(xb.route_column(2, 0, 15), 10);  // Reverse path inverts.
  EXPECT_EQ(xb.route_column(1, 1, 7), 7);    // Same block: identity.
}

TEST(BlockedCrossbar, RouteColumnOffEdge) {
  BlockedCrossbar xb(CrossbarConfig{2, 4, 8});
  xb.interconnect(0).set_shift(6);
  EXPECT_EQ(xb.route_column(0, 1, 5), -1);
}

TEST(BlockedCrossbar, AggregateCounters) {
  BlockedCrossbar xb(CrossbarConfig{2, 4, 8});
  xb.set(CellAddr{0, 0, 0}, true);
  xb.set(CellAddr{1, 0, 0}, true);
  xb.set(CellAddr{1, 0, 0}, false);
  EXPECT_EQ(xb.total_writes(), 3u);
  EXPECT_EQ(xb.total_switches(), 3u);
}

TEST(BlockedCrossbar, SharedDecodersIndependentOfBlockCount) {
  // The paper's area argument: adding blocks must not add decoders.
  BlockedCrossbar small(CrossbarConfig{1, 64, 64});
  BlockedCrossbar large(CrossbarConfig{8, 64, 64});
  EXPECT_EQ(small.shared_decoder_transistors(),
            large.shared_decoder_transistors());
}

TEST(BlockedCrossbar, RejectsEmptyGeometry) {
  EXPECT_THROW(BlockedCrossbar(CrossbarConfig{0, 4, 4}),
               std::invalid_argument);
  EXPECT_THROW(BlockedCrossbar(CrossbarConfig{1, 0, 4}),
               std::invalid_argument);
}

TEST(BlockedCrossbar, RandomizedWordRoundTrip) {
  util::Xoshiro256 rng(3);
  BlockedCrossbar xb(CrossbarConfig{2, 16, 70});
  for (int i = 0; i < 200; ++i) {
    const auto block = rng.next_below(2);
    const auto row = rng.next_below(16);
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
    const auto col = rng.next_below(70 - width);
    const std::uint64_t value = rng.next() & util::low_mask(width);
    xb.write_word(CellAddr{block, row, col}, width, value);
    EXPECT_EQ(xb.read_word(CellAddr{block, row, col}, width), value);
  }
}

}  // namespace
}  // namespace apim::crossbar
