#include "arith/word_models.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "arith/latency_model.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

// The 12 steps of kFaSchedule as straight-line bitwise code; the NOR
// events come from fa_counts, the schedule's per-triple counts.
template <bool kCost>
FaWordResult word_fa_stage(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           unsigned width) {
  assert(width >= 1 && width <= 64);
  const std::uint64_t mask = low_mask(width);
  a &= mask;
  b &= mask;
  c &= mask;
  FaWordResult out;
  if constexpr (kCost) out.nor = fa_counts(a, b, c, width);
  const std::uint64_t t1 = ~(a | b) & mask;           // (A+B)'
  const std::uint64_t t2 = ~(b | c) & mask;           // (B+C)'
  const std::uint64_t t3 = ~(a | c) & mask;           // (A+C)'
  const std::uint64_t cout = ~(t1 | t2 | t3) & mask;  // MAJ(A,B,C)
  const std::uint64_t na = ~a & mask;
  const std::uint64_t nb = ~b & mask;
  const std::uint64_t nc = ~c & mask;
  const std::uint64_t t4 = ~(na | nb | nc) & mask;  // A&B&C
  const std::uint64_t t5 = ~(a | b | c) & mask;     // (A+B+C)'
  const std::uint64_t t6 = ~(t5 | cout) & mask;
  const std::uint64_t t7 = ~(t4 | t6) & mask;
  out.sum = ~t7 & mask;   // Sum.
  out.carry = cout << 1;  // Interconnect alignment into bit i+1.
  return out;
}

// word_tree_reduce below runs the values-only stage and tallies the
// groups' events itself.
template FaWordResult word_fa_stage<true>(std::uint64_t, std::uint64_t,
                                          std::uint64_t, unsigned);

template <bool kCost>
WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b, unsigned n) {
  assert(n >= 1 && n <= 64);
  a &= low_mask(n);
  b &= low_mask(n);
  const std::uint64_t sum = a + b;
  WordUnitResult out;
  if constexpr (kCost) {
    // One shared initialization cycle for all 12n scratch/output cells; the
    // initial carry is a reference cell permanently at '0' (no write
    // needed). The per-bit carries are those of the binary sum: bit i of
    // sum ^ a ^ b is the carry into bit i.
    out.cycles = serial_add_cycles(n);
    out.energy = fa_counts(a, b, sum ^ a ^ b, n);
    out.energy.init = 12 * std::uint64_t{n};
  }
  // For n < 64 the carry out sits in-band at bit n of the sum.
  out.value = sum;
  out.carry_out = n < 64 ? bit(sum, n) != 0 : sum < a;
  return out;
}

template WordUnitResult word_serial_add<true>(std::uint64_t, std::uint64_t,
                                              unsigned);
template WordUnitResult word_serial_add<false>(std::uint64_t, std::uint64_t,
                                               unsigned);

namespace {

/// The events of a tree's 3:2 groups, tallied per group and counted once
/// per tree (fa_counts is linear in its triples): a count vector summed
/// per group would cost the tree several times the host time.
struct TreeTally {
  FaTriples triples{};
  std::uint64_t init = 0;
  std::uint64_t interconnect_bits = 0;

  [[nodiscard]] device::EnergyCounts counts() const {
    device::EnergyCounts e = fa_counts(triples);
    e.init = init;
    e.interconnect_bits = interconnect_bits;
    return e;
  }
};

/// One 3:2 group of width w: tallies its events and returns the stage
/// result. `hops` is the sum of the three inputs' block distances to the
/// group's scratch band.
template <bool kCost = true>
FaWordResult reduce_group(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          unsigned w, std::uint64_t hops, TreeTally& tally) {
  if constexpr (kCost) {
    const FaTriples t = fa_triples(a, b, c, w);
    for (unsigned k = 0; k < 4; ++k) tally.triples[k] += t[k];
    // Initialization of the group's 12 x w scratch/output cells.
    tally.init += 12 * std::uint64_t{w};
    // Interconnect crossings: each of A, B, C is read 4 times by the
    // schedule; inputs may live in another block than the scratch band.
    tally.interconnect_bits += 4 * std::uint64_t{w} * hops;
    // The carry word is written one column left through the barrel
    // shifter (the "free shift" of the blocked memory).
    tally.interconnect_bits += w;
  }
  return word_fa_stage<false>(a, b, c, w);
}

}  // namespace

TreeReduceResult word_tree_reduce(std::span<const std::uint64_t> values,
                                  const TreePlan& plan) {
  // Slot table indexed by operand id; initial operands come from `values`.
  std::vector<std::uint64_t> v(plan.operands.size(), 0);
  assert(values.size() <= v.size());
  for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];

  TreeReduceResult out;
  TreeTally tally;
  for (const TreeStage& stage : plan.stages) {
    out.cycles += 13;  // 1 init + 12 bit-parallel NOR batches.
    for (const TreeGroup& g : stage.groups) {
      const auto hops = [&](std::size_t id) {
        return static_cast<std::uint64_t>(
            std::abs(static_cast<long long>(plan.operands[id].block) -
                     static_cast<long long>(stage.target_block)));
      };
      const FaWordResult fa =
          reduce_group(v[g.in0], v[g.in1], v[g.in2], g.fa_width,
                       hops(g.in0) + hops(g.in1) + hops(g.in2), tally);
      v[g.out_sum] = fa.sum;
      v[g.out_carry] = fa.carry;
    }
  }
  out.stages = static_cast<unsigned>(plan.stages.size());
  out.energy = tally.counts();

  assert(!plan.final_ids.empty() && plan.final_ids.size() <= 2);
  out.x = v[plan.final_ids[0]];
  out.x_width = plan.operands[plan.final_ids[0]].width;
  if (plan.final_ids.size() == 2) {
    out.y = v[plan.final_ids[1]];
    out.y_width = plan.operands[plan.final_ids[1]].width;
  }
  return out;
}

device::EnergyCounts ppg_counts(std::uint64_t m1, std::uint64_t effective_m2,
                                unsigned n, unsigned first_bit) noexcept {
  device::EnergyCounts e;
  // Bit-wise sense-amp scan of the (unmasked part of the) multiplier.
  e.reads = n - first_bit;
  const auto p = static_cast<std::uint64_t>(popcount(effective_m2));
  if (p == 0) return e;  // Nothing to copy.
  const auto m1_ones = static_cast<std::uint64_t>(popcount(m1));
  const std::uint64_t m1_zeros = n - m1_ones;
  // Shared inverted image of the multiplicand: one NOT cycle over n lanes
  // (scratch init overlaps the SA scan). Result ~m1 switches where m1 is 1.
  // Then one copy cycle per set multiplier bit: the NOT of the inverted
  // image, whose inputs are at '1' where m1 is 0, routed through the
  // interconnect with shift j into the processing block (destination init
  // overlaps).
  e.init = n * (1 + p);
  e.input_on = m1_ones + p * m1_zeros;
  e.input_off = m1_zeros + p * m1_ones;
  e.switches = m1_ones + p * m1_zeros;
  e.interconnect_bits = p * n;
  return e;
}

PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2, unsigned n,
                   unsigned mask_bits) {
  check_multiply_width(n, "word_ppg");
  m1 &= low_mask(n);
  m2 &= low_mask(n);
  const unsigned first_bit = std::min(mask_bits, n);
  const std::uint64_t effective_m2 = m2 & ~low_mask(first_bit);
  PpgResult out;
  out.energy = ppg_counts(m1, effective_m2, n, first_bit);
  out.cycles = ppg_cycles(static_cast<unsigned>(popcount(effective_m2)));
  for (unsigned j = first_bit; j < n; ++j) {
    if (bit(effective_m2, j) == 0) continue;
    out.partials.push_back(m1 << j);
    out.widths.push_back(n + j);
  }
  return out;
}

std::uint64_t approximate_add_value(std::uint64_t x, std::uint64_t y,
                                    unsigned width, unsigned relax_m) noexcept {
  assert(width >= 1 && width <= 64);
  const unsigned m = relax_m > width ? width : relax_m;
  std::uint64_t carry = 0;
  std::uint64_t value = 0;
  for (unsigned i = 0; i < m; ++i) {
    const std::uint64_t cout = util::maj3(bit(x, i), bit(y, i), carry);
    // Approximated sum: complement of the exact carry-out.
    value |= (cout ^ 1u) << i;
    carry = cout;
  }
  for (unsigned i = m; i < width; ++i) {
    const std::uint64_t a = bit(x, i), b = bit(y, i);
    value |= util::sum3(a, b, carry) << i;
    carry = util::maj3(a, b, carry);
  }
  if (width < 64) value |= carry << width;
  return value;
}

template <bool kCost>
WordUnitResult word_final_add(std::uint64_t x, std::uint64_t y, unsigned width,
                              unsigned relax_m) {
  assert(width >= 1 && width <= 64);
  const unsigned m = relax_m > width ? width : relax_m;
  x &= low_mask(width);
  y &= low_mask(width);
  // Carries are exact in both regions, so they are the binary sum's: bit i
  // of sum ^ x ^ y is the carry into bit i, and `couts` holds each bit's
  // carry out (c_1..c_width).
  const std::uint64_t sum = x + y;
  const std::uint64_t carries = sum ^ x ^ y;
  const bool carry_out = width < 64 ? bit(sum, width) != 0 : sum < x;
  const std::uint64_t couts =
      (carries >> 1) | (static_cast<std::uint64_t>(carry_out) << 63);
  const std::uint64_t relaxed_carries = couts & low_mask(m);  // c_1..c_m.

  WordUnitResult out;
  if constexpr (kCost) {
    out.cycles = final_add_cycles(width, m);
    // Exact high bits: one 13-cycle MAGIC full add per bit (per-bit init is
    // not shared here because the carry chain serializes the bits; this is
    // the paper's 13*k accounting for the final product generation).
    if (m < width) {
      out.energy = fa_counts(x >> m, y >> m, carries >> m, width - m);
      out.energy.init = 12 * std::uint64_t{width - m};
    }
    if (m > 0) {
      // Relaxed low bits: exact carries from the SA majority (1 cycle)
      // written to the next column (1 cycle; the cell flips where the
      // carry is 1); sums deferred to the invert cycle. The trailing
      // parallel invert produces all relaxed sum bits at once: m inits, and
      // m NOT lanes whose input is the stored carry, switching where it is
      // 1. The carry cells sit one column left of the sum cells, so the
      // read path goes through the barrel shifter (shift -1), charged per
      // bit.
      const auto ones = static_cast<std::uint64_t>(popcount(relaxed_carries));
      out.energy.majority += m;
      out.energy.writes += m;
      out.energy.init += m;
      out.energy.interconnect_bits += m;
      out.energy.input_on += ones;
      out.energy.input_off += m - ones;
      out.energy.switches += 2 * ones;
    }
  }

  std::uint64_t value = sum;  // Exact bits, and the carry at bit width < 64.
  if (m > 0)
    value = (value & ~low_mask(m)) | (~relaxed_carries & low_mask(m));

  out.value = value;
  out.carry_out = carry_out;
  assert(out.value == approximate_add_value(x, y, width, relax_m));
  return out;
}

template WordUnitResult word_final_add<true>(std::uint64_t, std::uint64_t,
                                             unsigned, unsigned);
template WordUnitResult word_final_add<false>(std::uint64_t, std::uint64_t,
                                              unsigned, unsigned);

}  // namespace apim::arith
