#include "arith/fast_units.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <vector>

#include "arith/latency_model.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::low_mask;
using util::popcount;

template <bool kCost>
MultiplyOutcome fast_multiply(std::uint64_t a, std::uint64_t b, unsigned n,
                              ApproxConfig cfg, const device::EnergyModel&) {
  check_multiply_width(n, "fast_multiply");
  a &= low_mask(n);
  b &= low_mask(n);
  const unsigned first_bit = std::min(cfg.mask_bits, n);
  const std::uint64_t effective_m2 = b & ~low_mask(first_bit);
  const int p = popcount(effective_m2);

  // Stage 1: partial-product generation, counted without materializing
  // the partials (word_ppg's accounting).
  MultiplyOutcome out;
  out.partial_count = static_cast<unsigned>(p);
  if constexpr (kCost) {
    out.cycles = ppg_cycles(static_cast<unsigned>(p));
    out.energy = ppg_counts(a, effective_m2, n, first_bit);
  }
  if (p == 0) {
    // All multiplier bits are zero: the (pre-cleared) product row already
    // holds the exact result; no compute is issued.
    return out;
  }

  std::uint64_t x = a << std::countr_zero(effective_m2);
  if (p == 1) {
    // One partial product IS the product: it already sits in the
    // processing block after the copy-shift.
    out.product = x;
    return out;
  }
  std::uint64_t y = a << std::countr_zero(effective_m2 & (effective_m2 - 1));
  if (p >= 3) {
    // Stage 2: Wallace-tree 3:2 reduction across the two processing blocks.
    std::uint64_t partials[32];
    unsigned widths[32];
    unsigned char blocks[32];
    std::size_t count = 0;
    for (std::uint64_t bits = effective_m2; bits != 0; bits &= bits - 1) {
      const auto j = static_cast<unsigned>(std::countr_zero(bits));
      partials[count] = a << j;
      widths[count++] = n + j;
    }
    const TreeReduceResult tree = word_tree_reduce_in_place<kCost>(
        partials, widths, blocks, count, 2 * n);
    if constexpr (kCost) {
      out.cycles += tree.cycles;
      out.energy += tree.energy;
    }
    out.tree_stages = tree.stages;
    x = tree.x;
    y = tree.y;
  }

  // Stage 3: final product generation over the full 2N bits.
  const unsigned product_width = 2 * n;
  const WordUnitResult fin = word_final_add<kCost>(
      x, y, product_width, cfg.effective_relax(product_width));
  if constexpr (kCost) {
    out.cycles += fin.cycles;
    out.energy += fin.energy;
  }
  // The product of two n-bit numbers fits in 2n bits, so the exact carry
  // out of the final add is zero; in relaxed mode we still truncate to the
  // product width like the hardware's fixed-size product row does.
  out.product = fin.value & low_mask(product_width);
  return out;
}

template MultiplyOutcome fast_multiply<true>(std::uint64_t, std::uint64_t,
                                             unsigned, ApproxConfig,
                                             const device::EnergyModel&);
template MultiplyOutcome fast_multiply<false>(std::uint64_t, std::uint64_t,
                                              unsigned, ApproxConfig,
                                              const device::EnergyModel&);

template <bool kCost>
AddOutcome fast_tree_add(std::span<const std::uint64_t> values,
                         std::span<const unsigned> widths, unsigned width_cap,
                         const device::EnergyModel&) {
  if (values.empty() || values.size() != widths.size()) {
    throw std::invalid_argument(
        "fast_tree_add: needs one width per value and at least one value");
  }
  if (values.size() == 1) return AddOutcome{values[0], 0, {}};

  // Popcount-sized trees reduce in stack arrays; longer ones (large dot
  // products) carve the three arrays from one heap block, widest first so
  // each stays aligned.
  constexpr std::size_t kInlineAddends = 64;
  const std::size_t count = values.size();
  std::uint64_t inline_values[kInlineAddends];
  unsigned inline_widths[kInlineAddends];
  unsigned char inline_blocks[kInlineAddends];
  std::vector<std::byte> heap;
  std::uint64_t* value = inline_values;
  unsigned* width = inline_widths;
  unsigned char* block = inline_blocks;
  if (count > kInlineAddends) {
    heap.resize(count * (sizeof(std::uint64_t) + sizeof(unsigned) + 1));
    value = new (heap.data()) std::uint64_t[count];
    width = new (value + count) unsigned[count];
    block = new (width + count) unsigned char[count];
  }
  for (std::size_t i = 0; i < count; ++i) {
    assert(widths[i] >= 1 && widths[i] <= width_cap);
    value[i] = values[i];
    width[i] = widths[i];
  }
  const TreeReduceResult tree =
      word_tree_reduce_in_place<kCost>(value, width, block, count, width_cap);
  AddOutcome out;
  if constexpr (kCost) {
    out.cycles = tree.cycles;
    out.energy = tree.energy;
  }
  const unsigned n_final = std::max(tree.x_width, tree.y_width);
  const WordUnitResult fin = word_serial_add<kCost>(tree.x, tree.y, n_final);
  out.sum = fin.value;
  if constexpr (kCost) {
    out.cycles += fin.cycles;
    out.energy += fin.energy;
  }
  out.carry_out = fin.carry_out;
  return out;
}

template AddOutcome fast_tree_add<true>(std::span<const std::uint64_t>,
                                        std::span<const unsigned>, unsigned,
                                        const device::EnergyModel&);
template AddOutcome fast_tree_add<false>(std::span<const std::uint64_t>,
                                         std::span<const unsigned>, unsigned,
                                         const device::EnergyModel&);

template <bool kCost>
AddOutcome fast_add(std::uint64_t a, std::uint64_t b, unsigned n,
                    unsigned relax_m, const device::EnergyModel&) {
  assert(n >= 1 && n <= 64);
  a &= low_mask(n);
  b &= low_mask(n);
  // The runtime issues whichever adder is faster (latency_model's policy).
  const unsigned relax = profitable_add_relax(n, relax_m);
  const WordUnitResult r = relax == 0
                               ? word_serial_add<kCost>(a, b, n)
                               : word_final_add<kCost>(a, b, n, relax);
  return AddOutcome{r.value, r.cycles, r.energy, r.carry_out};
}

template AddOutcome fast_add<true>(std::uint64_t, std::uint64_t, unsigned,
                                   unsigned, const device::EnergyModel&);
template AddOutcome fast_add<false>(std::uint64_t, std::uint64_t, unsigned,
                                    unsigned, const device::EnergyModel&);

}  // namespace apim::arith
