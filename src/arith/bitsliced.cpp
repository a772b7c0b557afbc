#include "arith/bitsliced.hpp"

#include <cassert>

#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::low_mask;

void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept {
  for (unsigned i = 0; i < 64; ++i) out[i] = in[i];
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k] ^= t << j;
      out[k | j] ^= t;
    }
  }
}

namespace {

inline std::uint64_t maj_plane(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) noexcept {
  return (a & b) | (c & (a ^ b));
}

/// Bitsliced twin of word_serial_add over one slice. `ap`/`bp` are n bit
/// planes; value/energy slots of ALL `count` lanes are (re)initialized and
/// written — lanes the caller considers inactive just compute unused
/// numbers, which keeps the hot loops branchless. Cycles (12n+1, shared)
/// are left to the caller.
void slice_serial_add(const std::uint64_t* ap, const std::uint64_t* bp,
                      unsigned n, std::size_t count, const FaEnergyTable& tab,
                      const device::EnergyModel& em, std::uint64_t value[],
                      double energy[], std::uint64_t* carry_mask) {
  for (std::size_t l = 0; l < count; ++l) {
    value[l] = 0;
    energy[l] = 12.0 * static_cast<double>(n) * em.e_init_pj;
  }
  std::uint64_t c = 0;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t a = ap[i];
    const std::uint64_t b = bp[i];
    const std::uint64_t s = a ^ b ^ c;
    const std::uint64_t cn = maj_plane(a, b, c);
    for (std::size_t l = 0; l < count; ++l) {
      const unsigned idx = fa_triple(a, b, c, static_cast<unsigned>(l));
      energy[l] += tab.fa[idx];
      value[l] |= ((s >> l) & 1u) << i;
    }
    c = cn;
  }
  if (n < 64) {
    for (std::size_t l = 0; l < count; ++l)
      value[l] |= ((c >> l) & 1u) << n;
  }
  *carry_mask = c;
}

/// Bitsliced twin of word_final_add (relaxed low bits, exact high bits,
/// trailing invert) over one slice; like slice_serial_add it writes ALL
/// `count` lanes branchlessly. `m` must already be clamped to `width`.
/// Cycles (13(width-m) + 2m + [m>0], shared) left to the caller.
void slice_final_add(const std::uint64_t* ap, const std::uint64_t* bp,
                     unsigned width, unsigned m, std::size_t count,
                     const FaEnergyTable& tab, const device::EnergyModel& em,
                     std::uint64_t value[], double energy[],
                     std::uint64_t* carry_mask) {
  for (std::size_t l = 0; l < count; ++l) {
    value[l] = 0;
    energy[l] = 0.0;
  }
  int rc_pop[kBitsliceLanes] = {};
  std::uint64_t c = 0;
  for (unsigned i = 0; i < m; ++i) {
    const std::uint64_t cn = maj_plane(ap[i], bp[i], c);
    for (std::size_t l = 0; l < count; ++l) {
      const unsigned cb = static_cast<unsigned>((cn >> l) & 1u);
      energy[l] += tab.relax[cb];
      rc_pop[l] += static_cast<int>(cb);
      value[l] |= static_cast<std::uint64_t>(cb ^ 1u) << i;
    }
    c = cn;
  }
  for (unsigned i = m; i < width; ++i) {
    const std::uint64_t a = ap[i];
    const std::uint64_t b = bp[i];
    const std::uint64_t s = a ^ b ^ c;
    const std::uint64_t cn = maj_plane(a, b, c);
    for (std::size_t l = 0; l < count; ++l) {
      const unsigned idx = fa_triple(a, b, c, static_cast<unsigned>(l));
      energy[l] += tab.fin[idx];
      value[l] |= ((s >> l) & 1u) << i;
    }
    c = cn;
  }
  if (m > 0) {
    for (std::size_t l = 0; l < count; ++l) {
      energy[l] += static_cast<double>(m) * em.e_init_pj;
      energy[l] += static_cast<double>(m) * em.e_interconnect_bit_pj;
      const int ones = rc_pop[l];
      const int zeros = static_cast<int>(m) - ones;
      energy[l] += static_cast<double>(ones) * em.e_input_on_pj +
                   static_cast<double>(zeros) * em.e_input_off_pj +
                   static_cast<double>(ones) * em.e_switch_pj;
    }
  }
  if (width < 64) {
    for (std::size_t l = 0; l < count; ++l)
      value[l] |= ((c >> l) & 1u) << width;
  }
  *carry_mask = c;
}

}  // namespace

void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, const device::EnergyModel& em,
    std::span<AddOutcome> out) {
  assert(n >= 1 && n <= 64);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  if (ops.empty()) return;
  const std::size_t count = ops.size();

  std::uint64_t x[64] = {};
  std::uint64_t y[64] = {};
  for (std::size_t l = 0; l < count; ++l) {
    x[l] = ops[l].first & low_mask(n);
    y[l] = ops[l].second & low_mask(n);
  }
  std::uint64_t xp[64];
  std::uint64_t yp[64];
  transpose64(x, xp);
  transpose64(y, yp);

  const FaEnergyTable& tab = fa_energy_table(em);
  const unsigned relax = profitable_add_relax(n, relax_m);
  std::uint64_t value[64];
  double energy[64];
  std::uint64_t carry = 0;
  util::Cycles cycles;
  if (relax == 0) {
    slice_serial_add(xp, yp, n, count, tab, em, value, energy, &carry);
    cycles = serial_add_cycles(n);
  } else {
    const unsigned m = relax > n ? n : relax;
    slice_final_add(xp, yp, n, m, count, tab, em, value, energy, &carry);
    cycles = final_add_cycles(n, m);
  }
  for (std::size_t l = 0; l < count; ++l) {
    out[l].sum = value[l];
    out[l].cycles = cycles;
    out[l].energy_ops_pj = energy[l];
    out[l].carry_out = ((carry >> l) & 1u) != 0;
    assert(out[l].sum ==
           approximate_add_value(x[l], y[l], n, relax == 0 ? 0 : relax));
  }
}

void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, const device::EnergyModel& em,
    std::span<MultiplyOutcome> out) {
  assert(n >= 1 && n <= 32);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  for (std::size_t l = 0; l < ops.size(); ++l)
    out[l] = fast_multiply(ops[l].first, ops[l].second, n, cfg, em);
}

}  // namespace apim::arith
