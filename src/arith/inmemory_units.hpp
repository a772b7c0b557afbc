// Bit-level in-memory arithmetic units executed on the MAGIC engine.
//
// Each self-contained entry point builds a right-sized blocked crossbar,
// loads the operands into the data rows (loading is not charged: in PIM the
// data already lives in memory), then executes the operation and reports
// the measured cycle count and micro-op event counts. These are the ground
// truth that the word-level fast models (fast_units.hpp) are
// property-tested against, and the basis of the microbenchmarks (Figure 6,
// ablations).
// Every entry point accepts an optional magic::Tracer; with row-resolved
// events enabled the recorded schedule feeds the static verifier
// (analysis/schedule_check.hpp), which the arith tests run as an
// assertion layer over these very schedules.
#pragma once

#include <cstdint>
#include <span>

#include "arith/approx.hpp"
#include "arith/tree_plan.hpp"
#include "device/energy_model.hpp"
#include "magic/engine.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Measured outcome of one in-memory operation (the event counts exclude
/// the per-cycle controller overhead, same convention as the word models).
///
/// Adders report their carry out of bit n-1 out-of-band in `carry_out`;
/// for n < 64 it is also folded into `value` at bit n, at n = 64 the
/// out-of-band copy is the only one (same contract as WordUnitResult).
struct InMemoryResult {
  std::uint64_t value = 0;
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
  bool carry_out = false;  ///< Adder carry out (false for multiplies).
  /// Partial products a multiply generated: the popcount of its masked
  /// multiplier, as fast_multiply's `partial_count` (0 for other units).
  unsigned partial_count = 0;
};

/// Serial (ripple) MAGIC addition of two n-bit numbers (n <= 64): 12n+1
/// cycles. For n < 64 the result includes the carry out in-band (n+1
/// bits); at n = 64 the carry is reported only via `carry_out`.
[[nodiscard]] InMemoryResult inmemory_serial_add(
    std::uint64_t a, std::uint64_t b, unsigned n,
    const device::EnergyModel& em, magic::Tracer* tracer = nullptr);

/// Three-way comparison support: complement-and-add over the serial MAGIC
/// adder (see compare_units.hpp for the predicate decode). Returns the raw
/// a + (~b & mask) sum under the usual carry-out contract; 12n + 3 cycles
/// (complement init + row-parallel NOT + the 12n + 1 serial add).
[[nodiscard]] InMemoryResult inmemory_compare(
    std::uint64_t a, std::uint64_t b, unsigned n,
    const device::EnergyModel& em, magic::Tracer* tracer = nullptr);

/// One carry-save 3:2 stage over `width`-bit operands: 13 cycles
/// independent of width. Returns sum and (aligned) carry words.
struct CsaOutcome {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
};
[[nodiscard]] CsaOutcome inmemory_csa(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c, unsigned width,
                                      const device::EnergyModel& em,
                                      magic::Tracer* tracer = nullptr);

/// Full multi-operand addition: Wallace-tree 3:2 reduction toggling between
/// two processing blocks, then one serial add of the two survivors.
/// `widths[i]` bounds `values[i]`; `width_cap` bounds the running sum
/// (callers typically pass n + ceil(log2(M))).
[[nodiscard]] InMemoryResult inmemory_tree_add(
    std::span<const std::uint64_t> values, std::span<const unsigned> widths,
    unsigned width_cap, const device::EnergyModel& em,
    magic::Tracer* tracer = nullptr);

/// Full NxN in-memory multiplication through the three-stage pipeline with
/// the given approximation configuration. Throws std::invalid_argument, in
/// every build type, for n outside 1..32.
[[nodiscard]] InMemoryResult inmemory_multiply(
    std::uint64_t a, std::uint64_t b, unsigned n, ApproxConfig cfg,
    const device::EnergyModel& em, magic::Tracer* tracer = nullptr);

/// Standalone relaxed addition (SA-majority carries, approximated sums in
/// the low `relax_m` bits), n <= 64: 13(n-m) + 2m + 1 cycles. Carry-out
/// contract as for inmemory_serial_add (carries stay exact under
/// relaxation, so `carry_out` is exact).
[[nodiscard]] InMemoryResult inmemory_relaxed_add(
    std::uint64_t a, std::uint64_t b, unsigned n, unsigned relax_m,
    const device::EnergyModel& em, magic::Tracer* tracer = nullptr);

}  // namespace apim::arith
