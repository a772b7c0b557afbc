// Models of the prior in-memory adders APIM is compared against in
// Figure 6: the serial MAGIC adder of Talati et al. [24] and the
// complementary-resistive-switch (CRS) crossbar adder of Siemon et
// al. [25] ("PC-Adder").
//
// [24] is fully specified by the paper: a serial N-bit addition costs
// 12N+1 cycles, and multi-operand addition chains (M-1) serial adds. [25]
// is closed-source and its tables are not reproduced in the APIM paper, so
// its per-add latency here is a calibrated constant chosen to land the
// relative positions the paper reports (APIM >= 2x faster in exact mode,
// >= 6x faster at 99.9% accuracy) — see DESIGN.md's substitution table.
// The PC-Adder's area overhead IS structural: each of its arrays has its
// own wordline/bitline controllers, while all APIM blocks share one set.
#pragma once

#include <cstddef>

#include "util/units.hpp"

namespace apim::baseline {

/// Talati et al. [24]: chained serial MAGIC additions, no shift support.
class TalatiAdder {
 public:
  /// Latency of one serial n-bit addition: 12n + 1 (paper Section 2).
  [[nodiscard]] static util::Cycles add_cycles(unsigned n) noexcept {
    return 12ull * n + 1;
  }

  /// Adding `operands` n-bit numbers with (operands-1) chained serial adds,
  /// widths growing with the running sum. This is the "linear dependency of
  /// latency ... on the size of data" the APIM paper criticises.
  [[nodiscard]] static util::Cycles multi_add_cycles(std::size_t operands,
                                                     unsigned n) noexcept;
};

/// Siemon et al. [25]: fast CRS adder, one array (with private
/// controllers) per concurrent addition.
class PcAdder {
 public:
  /// Calibrated per-addition latency in MAGIC-equivalent cycles. CRS
  /// additions are pulse sequences of several device transitions per bit;
  /// 6 cycles/bit lands the paper's relative ordering (faster than [24],
  /// >= 2x slower than the APIM tree at the evaluated sizes).
  [[nodiscard]] static util::Cycles add_cycles(unsigned n) noexcept {
    return 6ull * n + 2;
  }

  [[nodiscard]] static util::Cycles multi_add_cycles(std::size_t operands,
                                                     unsigned n) noexcept;

  /// Area proxy: transistors spent on controllers. The PC-Adder needs one
  /// decoder pair per array (paper Section 4.2: "multiple arrays each
  /// having different wordline and bitline controllers").
  [[nodiscard]] static std::size_t controller_transistors(
      std::size_t arrays, std::size_t rows, std::size_t cols);
};

}  // namespace apim::baseline
