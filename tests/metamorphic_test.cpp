// Metamorphic tests: algebraic relations that must hold between RELATED
// executions of the in-memory arithmetic — a complementary axis to the
// differential (engine vs fast) and reference (vs host arithmetic) suites.
#include <gtest/gtest.h>

#include "arith/fast_units.hpp"
#include "arith/latency_model.hpp"
#include "core/apim.hpp"
#include "energy_counts_print.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

TEST(Metamorphic, MultiplyValueCommutesButCostDoesNot) {
  // a*b == b*a in value (exact mode), but the COST is asymmetric: PPG and
  // the tree depend on the popcount of the MULTIPLIER operand — a real
  // property of the architecture worth pinning (operand order matters for
  // scheduling, and a smart compiler would put the sparser value second).
  const std::uint64_t dense = 0xFFFFFF0F;  // popcount 28.
  const std::uint64_t sparse = 0x80000001;  // popcount 2.
  const MultiplyOutcome ds = fast_multiply(dense, sparse, 32, {}, em());
  const MultiplyOutcome sd = fast_multiply(sparse, dense, 32, {}, em());
  EXPECT_EQ(ds.product, sd.product);
  EXPECT_EQ(ds.product, dense * sparse);
  EXPECT_LT(ds.cycles, sd.cycles);  // Sparse multiplier is cheaper.
  EXPECT_EQ(ds.partial_count, 2u);
  EXPECT_EQ(sd.partial_count, 28u);
}

TEST(Metamorphic, MaskingEqualsExactMultiplyOfMaskedOperand) {
  // fast_multiply(a, b, mask=k) must behave exactly like the exact multiply
  // of (a, b & ~low_mask(k)) — in VALUE and in COST (the hardware cannot
  // tell a masked-off bit from a zero bit).
  util::Xoshiro256 rng(161);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const unsigned k = static_cast<unsigned>(rng.next_below(24));
    const MultiplyOutcome masked =
        fast_multiply(a, b, 32, ApproxConfig::first_stage(k), em());
    const MultiplyOutcome equivalent = fast_multiply(
        a, b & ~util::low_mask(k), 32, ApproxConfig::exact(), em());
    ASSERT_EQ(masked.product, equivalent.product) << "k=" << k;
    ASSERT_EQ(masked.cycles, equivalent.cycles) << "k=" << k;
    // Energy differs only by the skipped SA reads of the masked bits.
    device::EnergyCounts with_skipped_reads = masked.energy;
    with_skipped_reads.reads += k;
    ASSERT_EQ(with_skipped_reads, equivalent.energy) << "k=" << k;
  }
}

TEST(Metamorphic, MultiplyByPowerOfTwoIsAShiftedCopy) {
  // b = 2^j: one partial product, product = a << j, no tree, no final add.
  util::Xoshiro256 rng(162);
  for (unsigned j = 0; j < 32; ++j) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const MultiplyOutcome r =
        fast_multiply(a, std::uint64_t{1} << j, 32, {}, em());
    ASSERT_EQ(r.product, a << j) << "j=" << j;
    ASSERT_EQ(r.cycles, ppg_cycles(1)) << "j=" << j;
    ASSERT_EQ(r.tree_stages, 0u);
  }
}

TEST(Metamorphic, AddIsCommutativeInValueAndCost) {
  util::Xoshiro256 rng(163);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    for (unsigned m : {0u, 8u, 16u}) {
      const AddOutcome ab = fast_add(a, b, 32, m, em());
      const AddOutcome ba = fast_add(b, a, 32, m, em());
      // The relaxed adder is symmetric in its operands: MAJ and the FA
      // schedule treat A and B identically.
      ASSERT_EQ(ab.sum, ba.sum) << "m=" << m;
      ASSERT_EQ(ab.cycles, ba.cycles);
      ASSERT_EQ(ab.energy, ba.energy);
    }
  }
}

TEST(Metamorphic, TreeAddIsPermutationInvariantInValue) {
  // Reordering the addends must not change the sum (it may change the
  // plan's internal widths, hence cost can differ slightly).
  util::Xoshiro256 rng(164);
  std::vector<std::uint64_t> values;
  std::vector<unsigned> widths(9, 16);
  for (int i = 0; i < 9; ++i)
    values.push_back(rng.next() & util::low_mask(16));
  const AddOutcome forward = fast_tree_add(values, widths, 20, em());
  std::vector<std::uint64_t> reversed(values.rbegin(), values.rend());
  const AddOutcome backward = fast_tree_add(reversed, widths, 20, em());
  EXPECT_EQ(forward.sum, backward.sum);
}

TEST(Metamorphic, RelaxedAddUpperBitsEqualTruncatedExactAdd) {
  // For any m: approx(a, b) >> m == (a + b) >> m. This is the contract the
  // k/m split rests on (exact carries), stated as a metamorphic relation.
  util::Xoshiro256 rng(165);
  for (int t = 0; t < 300; ++t) {
    const unsigned n = 8 + static_cast<unsigned>(rng.next_below(40));
    const unsigned m = static_cast<unsigned>(rng.next_below(n + 1));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const AddOutcome r = fast_add(a, b, n, m, em());
    ASSERT_EQ(r.sum >> m, (a + b) >> m) << "n=" << n << " m=" << m;
  }
}

TEST(Metamorphic, DeviceDistributesMultiplicationOverAddition) {
  // Exact mode: a*(b+c) == a*b + a*c end to end through the device API.
  core::ApimDevice device;
  util::Xoshiro256 rng(166);
  for (int t = 0; t < 50; ++t) {
    const auto a = static_cast<std::int64_t>(rng.next_below(1u << 15));
    const auto b = static_cast<std::int64_t>(rng.next_below(1u << 15));
    const auto c = static_cast<std::int64_t>(rng.next_below(1u << 15));
    const std::int64_t left = device.mul_int(a, device.add(b, c));
    const std::int64_t right =
        device.add(device.mul_int(a, b), device.mul_int(a, c));
    ASSERT_EQ(left, right);
  }
}

TEST(Metamorphic, ScalingOperandsScalesTheProduct) {
  // (2a) * b == 2 * (a*b): shifts commute with exact multiplication.
  util::Xoshiro256 rng(167);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(31);
    const std::uint64_t b = rng.next() & util::low_mask(16);
    const MultiplyOutcome doubled = fast_multiply(a << 1, b, 32, {}, em());
    const MultiplyOutcome base = fast_multiply(a, b, 32, {}, em());
    ASSERT_EQ(doubled.product, base.product << 1);
  }
}

TEST(Metamorphic, RelaxCyclesMonotoneInMForAllOperands) {
  // Latency never increases as m grows (after the serial-fallback policy),
  // for the SAME operands — the property the tuner's search relies on.
  util::Xoshiro256 rng(168);
  for (int t = 0; t < 50; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    util::Cycles prev = ~util::Cycles{0};
    for (unsigned m = 0; m <= 64; m += 4) {
      const MultiplyOutcome r =
          fast_multiply(a, b, 32, ApproxConfig::last_stage(m), em());
      ASSERT_LE(r.cycles, prev) << "m=" << m;
      prev = r.cycles;
    }
  }
}

}  // namespace
}  // namespace apim::arith
