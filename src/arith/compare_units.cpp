#include "arith/compare_units.hpp"

#include <array>
#include <cassert>

#include "arith/bitsliced.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

template <bool kCost>
CompareOutcome fast_compare(std::uint64_t a, std::uint64_t b, unsigned n,
                            const device::EnergyModel& em) {
  assert(n >= 1 && n <= 64);
  const std::uint64_t mask = low_mask(n);
  a &= mask;
  b &= mask;
  // Comparison is always exact: relax 0, so fast_add dispatches to the
  // serial adder (12n + 1 cycles) whose carry chain carries the predicate.
  const AddOutcome add = fast_add<kCost>(a, ~b & mask, n, /*relax_m=*/0, em);
  CompareOutcome out;
  if constexpr (kCost) {
    // Complement pass: 1 init cycle for the n destination cells + 1
    // row-parallel NOT cycle whose input is b, switching (1 -> 0) where b
    // is 1.
    const auto ones = static_cast<std::uint64_t>(popcount(b));
    out.cycles = 2 + add.cycles;
    out.energy = add.energy;
    out.energy.init += n;
    out.energy.input_on += ones;
    out.energy.input_off += n - ones;
    out.energy.switches += ones;
  }
  out.sum = add.sum;
  out.carry_out = add.carry_out;
  out.code = compare_code(add.sum, add.carry_out, n);
  return out;
}

template CompareOutcome fast_compare<true>(std::uint64_t, std::uint64_t,
                                           unsigned,
                                           const device::EnergyModel&);
template CompareOutcome fast_compare<false>(std::uint64_t, std::uint64_t,
                                            unsigned,
                                            const device::EnergyModel&);

void bitsliced_compare_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    const device::EnergyModel& em, std::span<CompareOutcome> out) {
  assert(ops.size() <= kBitsliceLanes);
  assert(out.size() >= ops.size());
  for (std::size_t l = 0; l < ops.size(); ++l)
    out[l] = fast_compare(ops[l].first, ops[l].second, n, em);
}

namespace {

/// The low n bits of x as n 1-bit tree-add operands (n <= 64), in stack
/// buffers.
struct PopcountOperands {
  std::array<std::uint64_t, 64> values{};
  std::array<unsigned, 64> widths{};
};

PopcountOperands popcount_operands(std::uint64_t x, unsigned n) {
  assert(n >= 1 && n <= 64);
  PopcountOperands ops;
  for (unsigned i = 0; i < n; ++i) {
    ops.values[i] = bit(x, i);
    ops.widths[i] = 1;
  }
  return ops;
}

}  // namespace

template <bool kCost>
AddOutcome fast_popcount(std::uint64_t x, unsigned n,
                         const device::EnergyModel& em) {
  const PopcountOperands ops = popcount_operands(x, n);
  return fast_tree_add<kCost>(std::span(ops.values).first(n),
                              std::span(ops.widths).first(n),
                              popcount_width_cap(n), em);
}

template AddOutcome fast_popcount<true>(std::uint64_t, unsigned,
                                        const device::EnergyModel&);
template AddOutcome fast_popcount<false>(std::uint64_t, unsigned,
                                         const device::EnergyModel&);

InMemoryResult inmemory_popcount(std::uint64_t x, unsigned n,
                                 const device::EnergyModel& em,
                                 magic::Tracer* tracer) {
  const PopcountOperands ops = popcount_operands(x, n);
  return inmemory_tree_add(std::span(ops.values).first(n),
                           std::span(ops.widths).first(n),
                           popcount_width_cap(n), em, tracer);
}

}  // namespace apim::arith
