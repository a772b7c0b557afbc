// Word-level "fast functional" models of the APIM in-memory arithmetic.
//
// These functions reproduce, on 64-bit words, exactly what the bit-level
// MAGIC engine does cell by cell: the same 12-step NOR schedule
// (fa_schedule.hpp), the same initialization batches, the same
// sense-amplifier events and the same interconnect crossings — so cycles
// and energy come out *identical* to the engine, not approximately equal.
// Property tests (tests/arith_equivalence_test.cpp) enforce this bit for
// bit over randomized operands. App-level workloads run on these models;
// the engine exists to validate them and to ground the microbenchmarks.
//
// The hot units neither allocate nor re-interpret the schedule per bit:
// the one-bit adders look their per-bit energy up in a per-triple table
// built by word_fa_bit (FaEnergyTable), word_fa_stage runs the schedule as
// straight-line bitwise code, and word_tree_reduce_in_place reduces
// without a TreePlan. Each keeps the exact floating-point statements and
// order of the schedule-interpreting evaluation, so the doubles are the
// same; the digests in tests/arith_equivalence_test.cpp pin them.
//
// Accounting convention: `energy_ops_pj` excludes the per-cycle controller
// overhead, mirroring MagicEngine::stats().energy_ops_pj. Callers add
// `cycles * EnergyModel::e_cycle_overhead_pj` for totals (see
// total_energy_pj below).
//
// Values only: the units the device's ops run through (word_fa_stage,
// word_serial_add, word_tree_reduce_in_place, word_final_add here; the
// fast_* units of fast_units.hpp and compare_units.hpp) take a
// `bool kCost = true` template switch. kCost = false compiles their cycle
// and energy statements out and keeps every value statement, so the value
// fields equal the priced call's and the costs stay zero
// (core::ApimDevice::values_only). kCost = true is the priced model the
// WordModelDigest tests pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arith/tree_plan.hpp"
#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Common result of a word-level unit: the computed value plus the cost the
/// equivalent in-memory execution would incur.
///
/// Carry-out contract: adders report the carry out of bit n-1 out-of-band
/// in `carry_out`. For n < 64 the carry is ALSO folded into `value` at bit
/// n (the historical "(n+1)-bit result" convention); at n = 64 it cannot
/// be, and `carry_out` is the only place it exists — it is never silently
/// dropped.
struct WordUnitResult {
  std::uint64_t value = 0;
  util::Cycles cycles = 0;
  double energy_ops_pj = 0.0;
  bool carry_out = false;  ///< Carry out of the top bit (see contract above).
};

/// Total energy including the per-cycle controller/decoder overhead.
[[nodiscard]] inline double total_energy_pj(const WordUnitResult& r,
                                            const device::EnergyModel& em) {
  return r.energy_ops_pj +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}

// -- 1-bit and word-parallel full-adder building blocks ----------------------

/// Evaluate the 12-step schedule on one bit triple. Returns sum, carry and
/// the NOR energy of the 12 evaluations (init energy not included).
struct FaBitResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;
  double nor_energy_pj = 0.0;
};
[[nodiscard]] FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c,
                                      const device::EnergyModel& em);

/// The energy the one-bit units add per bit, memoized per input triple
/// (index fa_triple(a, b, c, i)). Every entry is the double word_fa_bit's
/// evaluation produces (or the sum the unit forms from it), so a lookup
/// adds exactly what evaluating the schedule for that bit would.
struct FaEnergyTable {
  double fa[8] = {};     ///< Serial-adder bit: word_fa_bit NOR energy.
  double fin[8] = {};    ///< Exact final-add bit: 12 * e_init_pj + fa[t].
  double relax[2] = {};  ///< Relaxed final-add bit by its carry out:
                         ///< e_maj_pj + write_energy_pj(carry).
};

/// The table for `em`. Built on first use and cached per thread, keyed by
/// the model's value, so concurrent callers share no mutable state. The
/// reference stays valid until the calling thread asks for the table of a
/// different model.
[[nodiscard]] const FaEnergyTable& fa_energy_table(
    const device::EnergyModel& em);

/// Table index of bit i of the three operand words: a | b << 1 | c << 2.
[[nodiscard]] constexpr unsigned fa_triple(std::uint64_t a, std::uint64_t b,
                                           std::uint64_t c,
                                           unsigned i) noexcept {
  return static_cast<unsigned>(((a >> i) & 1u) | (((b >> i) & 1u) << 1) |
                               (((c >> i) & 1u) << 2));
}

/// Evaluate the schedule bit-parallel over `width` lanes (one carry-save
/// 3:2 stage). The returned carry word already includes the <<1 alignment
/// the hardware applies through the interconnect. NOR energy only.
struct FaWordResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;  ///< Aligned: carry into bit i+1 is bit i+1 here.
  double nor_energy_pj = 0.0;
};
template <bool kCost = true>
[[nodiscard]] FaWordResult word_fa_stage(std::uint64_t a, std::uint64_t b,
                                         std::uint64_t c, unsigned width,
                                         const device::EnergyModel& em);

// -- Serial (ripple) adder: the Talati-style 12N+1 baseline inside APIM ------

/// Add two n-bit numbers (n <= 64) with the serial MAGIC adder: 12n+1
/// cycles. For n < 64 the result has n+1 meaningful bits (carry out
/// included); at n = 64 the carry is reported only via `carry_out`.
template <bool kCost = true>
[[nodiscard]] WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b,
                                             unsigned n,
                                             const device::EnergyModel& em);

// -- Wallace-tree reduction ---------------------------------------------------

/// Outcome of reducing M operands to two with the planned 3:2 tree.
struct TreeReduceResult {
  std::uint64_t x = 0;  ///< First remaining addend (plan.final_ids[0]).
  std::uint64_t y = 0;  ///< Second remaining addend (0 when only one left).
  unsigned x_width = 0;
  unsigned y_width = 0;
  unsigned stages = 0;  ///< 3:2 stages executed.
  util::Cycles cycles = 0;
  double energy_ops_pj = 0.0;
};
/// `values[i]` must correspond to `plan.operands[i]` for the initial ids.
[[nodiscard]] TreeReduceResult word_tree_reduce(
    std::span<const std::uint64_t> values, const TreePlan& plan,
    const device::EnergyModel& em);

/// One live addend of word_tree_reduce_in_place.
struct TreeAddend {
  std::uint64_t value = 0;
  unsigned width = 0;
  unsigned block = 1;  ///< 1 (block_a) or 2 (block_b).
};

/// Allocation-free twin of word_tree_reduce(values, plan_tree_reduction(
/// widths, width_cap, 1, 2), em): the same grouping, width growth, block
/// toggling and per-group energy statements, evaluated in place. On entry
/// `addends` holds the initial operands (block 1); on return its first one
/// or two entries are the survivors, also copied into the result.
template <bool kCost = true>
[[nodiscard]] TreeReduceResult word_tree_reduce_in_place(
    std::span<TreeAddend> addends, unsigned width_cap,
    const device::EnergyModel& em);

// -- Partial-product generation ----------------------------------------------

/// Sense-amp driven partial-product generation (paper Section 3.3):
/// read the multiplier bit-wise; for every '1' bit j, copy-shift the
/// multiplicand by j into the processing block (copy = NOT of a shared
/// inverted image; 1 + popcount cycles in total).
struct PpgResult {
  std::vector<std::uint64_t> partials;  ///< m1 << j for each set bit j.
  std::vector<unsigned> widths;         ///< n + j for each partial.
  util::Cycles cycles = 0;
  double energy_ops_pj = 0.0;
};
/// `mask_bits` low multiplier bits are skipped entirely (first-stage
/// approximation): not read, not copied.
[[nodiscard]] PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2,
                                 unsigned n, unsigned mask_bits,
                                 const device::EnergyModel& em);

/// word_ppg's energy without materializing the partials (allocation-free).
/// `m1` and `effective_m2` are n-bit, and `effective_m2` has its
/// `first_bit` = min(mask_bits, n) low bits cleared; the cycles are
/// ppg_cycles(popcount(effective_m2)).
[[nodiscard]] double ppg_energy_pj(std::uint64_t m1,
                                   std::uint64_t effective_m2, unsigned n,
                                   unsigned first_bit,
                                   const device::EnergyModel& em) noexcept;

// -- Final-stage addition (exact / relaxed) ----------------------------------

/// Add two `width`-bit numbers in the final-product-generation style:
/// the top k = width - m bits via per-bit MAGIC full adds (13 cycles/bit),
/// the low m bits with exact SA-majority carries (2 cycles/bit) and
/// approximated sums S = NOT(Cout) (one shared trailing cycle).
/// Cycles: 13k + 2m + 1 (the +1 only when m > 0). For width < 64 the
/// result includes the carry out at bit `width`; at width 64 the carry is
/// reported only via `carry_out` (carries are exact in both regions, so
/// the carry out is exact even under relaxation).
template <bool kCost = true>
[[nodiscard]] WordUnitResult word_final_add(std::uint64_t x, std::uint64_t y,
                                            unsigned width, unsigned relax_m,
                                            const device::EnergyModel& em);

/// Reference semantics of the relaxed addition (value only, no costs);
/// used by tests and by error-bound analysis. At width 64 the returned
/// word necessarily truncates the carry; the unit results above carry it
/// out-of-band.
[[nodiscard]] std::uint64_t approximate_add_value(std::uint64_t x,
                                                  std::uint64_t y,
                                                  unsigned width,
                                                  unsigned relax_m) noexcept;

}  // namespace apim::arith
