#include "baseline/prior_adders.hpp"

#include <algorithm>

#include "arith/word_models.hpp"
#include "crossbar/decoder.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::baseline {

util::Cycles TalatiAdder::multi_add_cycles(std::size_t operands,
                                           unsigned n) noexcept {
  if (operands <= 1) return 0;
  util::Cycles total = 0;
  // The running sum after adding i operands needs n + ceil(log2 i) bits;
  // every chained serial add spans the full current width.
  for (std::size_t i = 2; i <= operands; ++i) {
    const unsigned width =
        n + util::bit_width(static_cast<std::uint64_t>(i) - 1);
    total += add_cycles(width);
  }
  return total;
}

double TalatiAdder::multi_add_energy_pj(std::size_t operands, unsigned n,
                                        const device::EnergyModel& em) {
  if (operands <= 1) return 0.0;
  // Average serial-add energy per bit on random data, sampled once per
  // (n, em) pair from the shared word model.
  util::Xoshiro256 rng(0x7A1A71);
  double total = 0.0;
  for (std::size_t i = 2; i <= operands; ++i) {
    const unsigned width = std::min(
        63u, n + util::bit_width(static_cast<std::uint64_t>(i) - 1));
    const std::uint64_t a = rng.next() & util::low_mask(width);
    const std::uint64_t b = rng.next() & util::low_mask(width);
    const arith::WordUnitResult r = arith::word_serial_add(a, b, width, em);
    total += arith::total_energy_pj(r, em);
  }
  return total;
}

util::Cycles PcAdder::multi_add_cycles(std::size_t operands,
                                       unsigned n) noexcept {
  if (operands <= 1) return 0;
  return static_cast<util::Cycles>(operands - 1) * add_cycles(n);
}

std::size_t PcAdder::controller_transistors(std::size_t arrays,
                                            std::size_t rows,
                                            std::size_t cols) {
  const crossbar::Decoder row_dec(rows);
  const crossbar::Decoder col_dec(cols);
  return arrays *
         (row_dec.estimated_transistors() + col_dec.estimated_transistors());
}

}  // namespace apim::baseline
