// In-memory comparison and popcount micro-kernels.
//
// Comparison is a complement-and-add: the subtrahend is inverted in place
// (one shared init cycle + one row-parallel NOT cycle, the same pattern the
// multiplier uses for its inverted multiplicand image) and then a + (~b)
// runs through the exact serial MAGIC adder. Because
//   a + (2^n - 1 - b) = 2^n - 1 + (a - b),
// the adder's carry-out IS the a > b predicate and an all-ones sum word is
// the a == b predicate — the three-way ordering falls out of one exact add
// with no extra compute. Comparison is always exact (relax 0) regardless of
// the caller's QoS relax: predicates and join keys are the exactness
// domain; approximation stays with the aggregates.
//
// Popcount is a degenerate tree add: the n bits of the word are n 1-bit
// operands fed to the existing Wallace 3:2 reduction, so it inherits the
// tree-add latency/energy laws unchanged.
//
// Both evaluators are provided with the usual fidelity contract:
// `inmemory_compare` (engine) vs `fast_compare` (word) agree exactly on
// value, cycles and every micro-op event count.
// `bitsliced_compare_slice` is a per-lane loop over `fast_compare`
// (arith/bitsliced.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "device/energy_model.hpp"
#include "util/bitops.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Three-way comparison result codes (stable wire encoding: these values
/// travel through serve::Response::values and the golden oracle).
inline constexpr std::uint64_t kCmpLt = 0;
inline constexpr std::uint64_t kCmpEq = 1;
inline constexpr std::uint64_t kCmpGt = 2;

/// Outcome of one n-bit three-way comparison.
struct CompareOutcome {
  std::uint64_t code = 0;  ///< kCmpLt / kCmpEq / kCmpGt.
  std::uint64_t sum = 0;   ///< Raw a + (~b & mask) (carry in-band at bit n
                           ///< when n < 64), kept for residue protection.
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
  bool carry_out = false;  ///< Adder carry == (a > b), out-of-band copy.
};

/// Decode the three-way code from the raw complement-add sum. `carry_out`
/// must be the adder's out-of-band carry (bit n of the sum for n < 64).
[[nodiscard]] constexpr std::uint64_t compare_code(std::uint64_t sum,
                                                   bool carry_out,
                                                   unsigned n) noexcept {
  if (carry_out) return kCmpGt;
  const std::uint64_t mask = util::low_mask(n);
  return (sum & mask) == mask ? kCmpEq : kCmpLt;
}

/// Word-level three-way compare of two n-bit magnitudes (n <= 64).
/// kCost = false computes only the value fields (word_models.hpp).
template <bool kCost = true>
[[nodiscard]] CompareOutcome fast_compare(std::uint64_t a, std::uint64_t b,
                                          unsigned n,
                                          const device::EnergyModel& em);

/// Execute up to 64 same-width compares, one fast_compare per lane: out[i]
/// is fast_compare(ops[i].first, ops[i].second, n, em).
void bitsliced_compare_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    const device::EnergyModel& em, std::span<CompareOutcome> out);

/// Width the popcount tree-add is planned at: the count of n set bits is at
/// most n, so bit_width(n) bits bound the running sum.
[[nodiscard]] constexpr unsigned popcount_width_cap(unsigned n) noexcept {
  return util::bit_width(n);
}

/// Word-level popcount of the low n bits of `x` (1 <= n <= 64): the n bits
/// become n 1-bit operands of the Wallace tree-add. kCost = false computes
/// only the value fields (word_models.hpp).
template <bool kCost = true>
[[nodiscard]] AddOutcome fast_popcount(std::uint64_t x, unsigned n,
                                       const device::EnergyModel& em);

/// Bit-level (engine) popcount, ground truth for fast_popcount.
[[nodiscard]] InMemoryResult inmemory_popcount(
    std::uint64_t x, unsigned n, const device::EnergyModel& em,
    magic::Tracer* tracer = nullptr);

[[nodiscard]] inline double total_energy_pj(const CompareOutcome& r,
                                            const device::EnergyModel& em) {
  return em.energy_pj(r.energy) +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}

}  // namespace apim::arith
