#include "baseline/prior_adders.hpp"

#include "crossbar/decoder.hpp"
#include "util/bitops.hpp"

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
