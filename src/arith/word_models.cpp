#include "arith/word_models.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "arith/fa_schedule.hpp"
#include "arith/latency_model.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        const device::EnergyModel& em) {
  assert(a <= 1 && b <= 1 && c <= 1);
  std::array<std::uint64_t, kFaSlotCount> slot{};
  slot[kSlotA] = a;
  slot[kSlotB] = b;
  slot[kSlotC] = c;
  FaBitResult out;
  for (const FaStep& step : kFaSchedule) {
    std::uint64_t any = 0;
    int ones = 0;
    for (unsigned i = 0; i < step.arity; ++i) {
      const std::uint64_t v = slot[step.inputs[i]];
      any |= v;
      ones += static_cast<int>(v);
    }
    const std::uint64_t result = any ^ 1u;  // NOR over single bits.
    slot[step.dst] = result;
    out.nor_energy_pj += em.nor_energy_pj(
        ones, static_cast<int>(step.arity) - ones, result == 0);
  }
  out.sum = slot[kSlotS];
  out.carry = slot[kSlotCout];
  return out;
}

namespace {

FaEnergyTable build_fa_energy_table(const device::EnergyModel& em) {
  FaEnergyTable tab;
  for (unsigned t = 0; t < 8; ++t) {
    const FaBitResult r = word_fa_bit(t & 1u, (t >> 1) & 1u, (t >> 2) & 1u, em);
    tab.fa[t] = r.nor_energy_pj;
    tab.fin[t] = 12.0 * em.e_init_pj + r.nor_energy_pj;
  }
  tab.relax[0] = em.e_maj_pj + em.write_energy_pj(false);
  tab.relax[1] = em.e_maj_pj + em.write_energy_pj(true);
  return tab;
}

}  // namespace

const FaEnergyTable& fa_energy_table(const device::EnergyModel& em) {
  struct Cache {
    device::EnergyModel key;
    FaEnergyTable table;
    bool built = false;
  };
  thread_local Cache cache;
  // Byte equality: equal bytes are an equal model; a spurious mismatch
  // would only rebuild the table.
  if (!cache.built || std::memcmp(&cache.key, &em, sizeof em) != 0) {
    cache.table = build_fa_energy_table(em);
    cache.key = em;
    cache.built = true;
  }
  return cache.table;
}

// The 12 steps of kFaSchedule as straight-line bitwise code. The energy
// statement of the schedule-interpreting loop is replicated per step (one
// += of ones*on + offs*off + switches*switch, steps in schedule order), so
// the accumulated double is the same; popcounts are exact integers, so
// reusing them across steps cannot change it. Without kCost, charge is
// empty and the popcounts feeding it are dead code.
template <bool kCost>
FaWordResult word_fa_stage(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           unsigned width, const device::EnergyModel& em) {
  assert(width >= 1 && width <= 64);
  const std::uint64_t mask = low_mask(width);
  a &= mask;
  b &= mask;
  c &= mask;
  const int w = static_cast<int>(width);
  FaWordResult out;
  const auto charge = [&](int ones, int arity, int result_pop) {
    if constexpr (kCost) {
      const int total_inputs = arity * w;
      const int switches = w - result_pop;
      out.nor_energy_pj +=
          static_cast<double>(ones) * em.e_input_on_pj +
          static_cast<double>(total_inputs - ones) * em.e_input_off_pj +
          static_cast<double>(switches) * em.e_switch_pj;
    }
  };
  const int pa = popcount(a), pb = popcount(b), pc = popcount(c);

  const std::uint64_t t1 = ~(a | b) & mask;  // (A+B)'
  const int p1 = popcount(t1);
  charge(pa + pb, 2, p1);
  const std::uint64_t t2 = ~(b | c) & mask;  // (B+C)'
  const int p2 = popcount(t2);
  charge(pb + pc, 2, p2);
  const std::uint64_t t3 = ~(a | c) & mask;  // (A+C)'
  const int p3 = popcount(t3);
  charge(pa + pc, 2, p3);
  const std::uint64_t cout = ~(t1 | t2 | t3) & mask;  // MAJ(A,B,C)
  const int pcout = popcount(cout);
  charge(p1 + p2 + p3, 3, pcout);
  const std::uint64_t na = ~a & mask;
  charge(pa, 1, w - pa);
  const std::uint64_t nb = ~b & mask;
  charge(pb, 1, w - pb);
  const std::uint64_t nc = ~c & mask;
  charge(pc, 1, w - pc);
  const std::uint64_t t4 = ~(na | nb | nc) & mask;  // A&B&C
  const int p4 = popcount(t4);
  charge((w - pa) + (w - pb) + (w - pc), 3, p4);
  const std::uint64_t t5 = ~(a | b | c) & mask;  // (A+B+C)'
  const int p5 = popcount(t5);
  charge(pa + pb + pc, 3, p5);
  const std::uint64_t t6 = ~(t5 | cout) & mask;
  const int p6 = popcount(t6);
  charge(p5 + pcout, 2, p6);
  const std::uint64_t t7 = ~(t4 | t6) & mask;
  const int p7 = popcount(t7);
  charge(p4 + p6, 2, p7);
  const std::uint64_t s = ~t7 & mask;  // Sum.
  charge(p7, 1, w - p7);

  out.sum = s;
  out.carry = cout << 1;  // Interconnect alignment into bit i+1.
  return out;
}

// Only this file's tree reductions run the values-only stage.
template FaWordResult word_fa_stage<true>(std::uint64_t, std::uint64_t,
                                          std::uint64_t, unsigned,
                                          const device::EnergyModel&);

template <bool kCost>
WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b, unsigned n,
                               const device::EnergyModel& em) {
  assert(n >= 1 && n <= 64);
  a &= low_mask(n);
  b &= low_mask(n);
  const std::uint64_t sum = a + b;
  WordUnitResult out;
  if constexpr (kCost) {
    const FaEnergyTable& tab = fa_energy_table(em);
    // The per-bit carries are those of the binary sum: bit i of
    // sum ^ a ^ b is the carry into bit i.
    const std::uint64_t carries = sum ^ a ^ b;
    // One shared initialization cycle for all 12n scratch/output cells; the
    // initial carry is a reference cell permanently at '0' (no write
    // needed).
    out.cycles = serial_add_cycles(n);
    out.energy_ops_pj = 12.0 * static_cast<double>(n) * em.e_init_pj;
    for (unsigned i = 0; i < n; ++i)
      out.energy_ops_pj += tab.fa[fa_triple(a, b, carries, i)];
  }
  // For n < 64 the carry out sits in-band at bit n of the sum.
  out.value = sum;
  out.carry_out = n < 64 ? bit(sum, n) != 0 : sum < a;
  return out;
}

template WordUnitResult word_serial_add<true>(std::uint64_t, std::uint64_t,
                                              unsigned,
                                              const device::EnergyModel&);
template WordUnitResult word_serial_add<false>(std::uint64_t, std::uint64_t,
                                               unsigned,
                                               const device::EnergyModel&);

namespace {

/// One 3:2 group of width w: adds its cost to `energy` statement by
/// statement, in the order both tree reductions share, and returns the
/// stage result. `hops` is the sum of the three inputs' block distances to
/// the group's scratch band.
template <bool kCost = true>
FaWordResult reduce_group(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          unsigned w, double hops,
                          const device::EnergyModel& em, double& energy) {
  if constexpr (kCost) {
    // Initialization of the group's 12 x w scratch/output cells.
    energy += 12.0 * static_cast<double>(w) * em.e_init_pj;
    // Interconnect crossings: each of A, B, C is read 4 times by the
    // schedule; inputs may live in another block than the scratch band.
    energy += 4.0 * static_cast<double>(w) * hops * em.e_interconnect_bit_pj;
    // The carry word is written one column left through the barrel
    // shifter (the "free shift" of the blocked memory).
    energy += static_cast<double>(w) * em.e_interconnect_bit_pj;
  }
  const FaWordResult fa = word_fa_stage<kCost>(a, b, c, w, em);
  if constexpr (kCost) energy += fa.nor_energy_pj;
  return fa;
}

}  // namespace

TreeReduceResult word_tree_reduce(std::span<const std::uint64_t> values,
                                  const TreePlan& plan,
                                  const device::EnergyModel& em) {
  // Slot table indexed by operand id; initial operands come from `values`.
  std::vector<std::uint64_t> v(plan.operands.size(), 0);
  assert(values.size() <= v.size());
  for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];

  TreeReduceResult out;
  for (const TreeStage& stage : plan.stages) {
    out.cycles += 13;  // 1 init + 12 bit-parallel NOR batches.
    for (const TreeGroup& g : stage.groups) {
      const auto hops = [&](std::size_t id) {
        return static_cast<double>(
            std::abs(static_cast<long long>(plan.operands[id].block) -
                     static_cast<long long>(stage.target_block)));
      };
      const FaWordResult fa =
          reduce_group(v[g.in0], v[g.in1], v[g.in2], g.fa_width,
                       hops(g.in0) + hops(g.in1) + hops(g.in2), em,
                       out.energy_ops_pj);
      v[g.out_sum] = fa.sum;
      v[g.out_carry] = fa.carry;
    }
  }
  out.stages = static_cast<unsigned>(plan.stages.size());

  assert(!plan.final_ids.empty() && plan.final_ids.size() <= 2);
  out.x = v[plan.final_ids[0]];
  out.x_width = plan.operands[plan.final_ids[0]].width;
  if (plan.final_ids.size() == 2) {
    out.y = v[plan.final_ids[1]];
    out.y_width = plan.operands[plan.final_ids[1]].width;
  }
  return out;
}

template <bool kCost>
TreeReduceResult word_tree_reduce_in_place(std::span<TreeAddend> addends,
                                           unsigned width_cap,
                                           const device::EnergyModel& em) {
  assert(!addends.empty());
  assert(width_cap >= 1 && width_cap <= 64);
  TreeReduceResult out;
  std::size_t live = addends.size();
  unsigned target = 2;  // First stage toggles away from the inputs.
  while (live > 2) {
    if constexpr (kCost) out.cycles += 13;  // 1 init + 12 NOR batches.
    // Group g reads entries 3g..3g+2 and writes its sum and carry to 2g and
    // 2g+1, which it has already read (g = 0) or which are spent (g > 0);
    // pass-throughs follow the outputs, as in plan_tree_reduction.
    std::size_t next = 0;
    std::size_t i = 0;
    for (; i + 3 <= live; i += 3) {
      const TreeAddend in0 = addends[i], in1 = addends[i + 1],
                       in2 = addends[i + 2];
      const unsigned w =
          std::min(std::max({in0.width, in1.width, in2.width}) + 1, width_cap);
      const auto hops = [&](const TreeAddend& t) {
        return static_cast<double>(std::abs(static_cast<long long>(t.block) -
                                            static_cast<long long>(target)));
      };
      const FaWordResult fa =
          reduce_group<kCost>(in0.value, in1.value, in2.value, w,
                              hops(in0) + hops(in1) + hops(in2), em,
                              out.energy_ops_pj);
      addends[next++] = TreeAddend{fa.sum, w, target};
      addends[next++] = TreeAddend{fa.carry, w, target};
    }
    for (; i < live; ++i) addends[next++] = addends[i];
    live = next;
    ++out.stages;
    target = target == 2 ? 1 : 2;
  }
  out.x = addends[0].value;
  out.x_width = addends[0].width;
  if (live == 2) {
    out.y = addends[1].value;
    out.y_width = addends[1].width;
  }
  return out;
}

template TreeReduceResult word_tree_reduce_in_place<true>(
    std::span<TreeAddend>, unsigned, const device::EnergyModel&);
template TreeReduceResult word_tree_reduce_in_place<false>(
    std::span<TreeAddend>, unsigned, const device::EnergyModel&);

double ppg_energy_pj(std::uint64_t m1, std::uint64_t effective_m2,
                     unsigned n, unsigned first_bit,
                     const device::EnergyModel& em) noexcept {
  // Bit-wise sense-amp scan of the (unmasked part of the) multiplier.
  double e = static_cast<double>(n - first_bit) * em.e_read_pj;

  const int p = popcount(effective_m2);
  if (p == 0) return e;  // Nothing to copy.

  const int m1_ones = popcount(m1);
  const int m1_zeros = static_cast<int>(n) - m1_ones;

  // Shared inverted image of the multiplicand: one NOT cycle over n lanes
  // (scratch init overlaps the SA scan). Result ~m1 switches where m1 is 1.
  e += static_cast<double>(n) * em.e_init_pj;
  e += static_cast<double>(m1_ones) * em.e_input_on_pj +
       static_cast<double>(m1_zeros) * em.e_input_off_pj +
       static_cast<double>(m1_ones) * em.e_switch_pj;

  // Each set multiplier bit: one copy cycle (NOT of the inverted image
  // routed through the interconnect with shift j into the processing
  // block). Destination init overlaps.
  for (int q = 0; q < p; ++q) {
    e += static_cast<double>(n) * em.e_init_pj;
    // Inputs are the inverted word: ones where m1 is 0.
    e += static_cast<double>(m1_zeros) * em.e_input_on_pj +
         static_cast<double>(m1_ones) * em.e_input_off_pj +
         static_cast<double>(m1_zeros) * em.e_switch_pj;
    e += static_cast<double>(n) * em.e_interconnect_bit_pj;
  }
  return e;
}

PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2, unsigned n,
                   unsigned mask_bits, const device::EnergyModel& em) {
  assert(n >= 1 && n <= 32);
  m1 &= low_mask(n);
  m2 &= low_mask(n);
  const unsigned first_bit = std::min(mask_bits, n);
  const std::uint64_t effective_m2 = m2 & ~low_mask(first_bit);
  PpgResult out;
  out.energy_ops_pj = ppg_energy_pj(m1, effective_m2, n, first_bit, em);
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
                              unsigned relax_m,
                              const device::EnergyModel& em) {
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
    const FaEnergyTable& tab = fa_energy_table(em);
    out.cycles = final_add_cycles(width, m);
    // Relaxed low bits: exact carries from the SA majority (1 cycle)
    // written to the next column (1 cycle); sums deferred to the invert
    // cycle.
    for (unsigned i = 0; i < m; ++i)
      out.energy_ops_pj += tab.relax[bit(couts, i)];

    // Exact high bits: one 13-cycle MAGIC full add per bit (per-bit init is
    // not shared here because the carry chain serializes the bits; this is
    // the paper's 13*k accounting for the final product generation).
    for (unsigned i = m; i < width; ++i)
      out.energy_ops_pj += tab.fin[fa_triple(x, y, carries, i)];
  }

  // Trailing parallel invert producing all relaxed sum bits at once. The
  // carry cells sit one column left of the sum cells, so the read path goes
  // through the barrel shifter (shift -1), charged per bit.
  std::uint64_t value = sum;  // Exact bits, and the carry at bit width < 64.
  if (m > 0) {
    if constexpr (kCost) {
      out.energy_ops_pj += static_cast<double>(m) * em.e_init_pj;
      out.energy_ops_pj += static_cast<double>(m) * em.e_interconnect_bit_pj;
      const int ones = popcount(relaxed_carries);
      const int zeros = static_cast<int>(m) - ones;
      // NOT lanes: input is the stored carry, result switches where
      // carry=1.
      out.energy_ops_pj += static_cast<double>(ones) * em.e_input_on_pj +
                           static_cast<double>(zeros) * em.e_input_off_pj +
                           static_cast<double>(ones) * em.e_switch_pj;
    }
    value = (value & ~low_mask(m)) | (~relaxed_carries & low_mask(m));
  }

  out.value = value;
  out.carry_out = carry_out;
  assert(out.value == approximate_add_value(x, y, width, relax_m));
  return out;
}

template WordUnitResult word_final_add<true>(std::uint64_t, std::uint64_t,
                                             unsigned, unsigned,
                                             const device::EnergyModel&);
template WordUnitResult word_final_add<false>(std::uint64_t, std::uint64_t,
                                              unsigned, unsigned,
                                              const device::EnergyModel&);

}  // namespace apim::arith
