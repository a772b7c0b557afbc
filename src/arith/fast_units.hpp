// Composed word-level APIM units: the full multiplier and the standalone
// adder, with cycles and micro-op event counts identical to the bit-level
// engine's (see word_models.hpp for the convention and the kCost switch:
// with kCost = false each unit computes only its value fields). Each unit
// takes the caller's EnergyModel, as the engine units do, but counts
// events without reading a price: price an outcome with
// EnergyModel::energy_pj, or total_energy_pj below.
#pragma once

#include <cstdint>
#include <span>

#include "arith/approx.hpp"
#include "arith/word_models.hpp"
#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Result of an N x N in-memory multiplication.
struct MultiplyOutcome {
  std::uint64_t product = 0;  ///< 2N-bit product (approximate if configured).
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
  unsigned partial_count = 0;  ///< Partial products actually generated.
  unsigned tree_stages = 0;    ///< 3:2 reduction stages executed.
};

/// Multiply two n-bit magnitudes (1 <= n <= 32) through the three-stage
/// APIM pipeline: SA-driven partial-product generation, Wallace-tree 3:2
/// reduction, final product generation with optional relaxation. Throws
/// std::invalid_argument, in every build type, for n outside 1..32.
template <bool kCost = true>
[[nodiscard]] MultiplyOutcome fast_multiply(std::uint64_t a, std::uint64_t b,
                                            unsigned n, ApproxConfig cfg,
                                            const device::EnergyModel& em);

/// Result of a standalone n-bit addition. For n < 64 `sum` is the
/// (n+1)-bit result including the carry out at bit n; at n = 64 the carry
/// cannot live in-band and is reported only via `carry_out` (which is set
/// for every width, never silently dropped).
struct AddOutcome {
  std::uint64_t sum = 0;  ///< Result; carry in-band at bit n when n < 64.
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
  bool carry_out = false;  ///< Carry out of bit n-1 (out-of-band copy).
};

/// Add two n-bit magnitudes (n <= 64). Exact mode uses the serial MAGIC adder
/// (12n + 1 cycles); with relax_m > 0 the SA-majority relaxed adder is used
/// (13(n-m) + 2m + 1 cycles), the same technique the multiplier's final
/// stage applies (Section 3.4 — the approach works for any addition, and
/// the adaptive runtime applies it to the application's standalone adds as
/// well as its multiplies).
template <bool kCost = true>
[[nodiscard]] AddOutcome fast_add(std::uint64_t a, std::uint64_t b, unsigned n,
                                  unsigned relax_m,
                                  const device::EnergyModel& em);

/// Multi-operand addition: Wallace-tree 3:2 reduction followed by one
/// serial add of the two survivors — the word-level twin of
/// inmemory_tree_add. `width_cap` bounds the running sum (pass
/// n + ceil(log2(M)) for M n-bit operands). Throws std::invalid_argument,
/// in every build type, when `values` is empty or `widths` differs from it
/// in size.
template <bool kCost = true>
[[nodiscard]] AddOutcome fast_tree_add(std::span<const std::uint64_t> values,
                                       std::span<const unsigned> widths,
                                       unsigned width_cap,
                                       const device::EnergyModel& em);

/// Total energy (pJ) including per-cycle controller overhead.
[[nodiscard]] inline double total_energy_pj(const MultiplyOutcome& r,
                                            const device::EnergyModel& em) {
  return em.energy_pj(r.energy) +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}
[[nodiscard]] inline double total_energy_pj(const AddOutcome& r,
                                            const device::EnergyModel& em) {
  return em.energy_pj(r.energy) +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}

}  // namespace apim::arith
