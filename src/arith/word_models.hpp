// Word-level "fast functional" models of the APIM in-memory arithmetic.
//
// These functions reproduce, on 64-bit words, exactly what the bit-level
// MAGIC engine does cell by cell: the same 12-step NOR schedule
// (fa_schedule.hpp), the same initialization batches, the same
// sense-amplifier events and the same interconnect crossings — so values,
// cycles and micro-op event counts come out *identical* to the engine's.
// Property tests (tests/arith_equivalence_test.cpp) compare them with ==
// over randomized operands. App-level workloads run on these models; the
// engine exists to validate them and to ground the microbenchmarks.
//
// Energy is counted, not summed: each unit reports a device::EnergyCounts
// (NOR inputs at '1' and '0', switches, inits, writes, reads, majorities,
// interconnect bits), and the caller prices it once with
// EnergyModel::energy_pj. The counts come in closed form, O(1) per word:
// a 3:2 stage, the serial add and the exact part of the final add class
// their bit triples by how many ones they hold through three popcounts
// (fa_triples) and count those (fa_counts), and a 3:2 tree adds up its
// groups' triples and counts them once; partial-product generation, the
// relaxed final add and the compare's complement count their events
// directly. word_fa_bit, which runs the schedule on one bit triple, is the
// reference fa_counts is tested against.
//
// Accounting convention: `energy` excludes the per-cycle controller
// overhead, mirroring MagicEngine::stats().energy. Callers add
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

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith/fa_schedule.hpp"
#include "arith/tree_plan.hpp"
#include "device/energy_model.hpp"
#include "util/bitops.hpp"
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
  device::EnergyCounts energy;
  bool carry_out = false;  ///< Carry out of the top bit (see contract above).
};

/// Total energy including the per-cycle controller/decoder overhead.
[[nodiscard]] inline double total_energy_pj(const WordUnitResult& r,
                                            const device::EnergyModel& em) {
  return em.energy_pj(r.energy) +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}

// -- 1-bit and word-parallel full-adder building blocks ----------------------

/// Evaluate the 12-step schedule on one bit triple. Returns sum, carry and
/// the NOR events of the 12 evaluations (init not included): the
/// reference fa_counts is tested against.
struct FaBitResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;
  device::EnergyCounts nor;
};
[[nodiscard]] constexpr FaBitResult word_fa_bit(std::uint64_t a,
                                                std::uint64_t b,
                                                std::uint64_t c) noexcept {
  assert(a <= 1 && b <= 1 && c <= 1);
  std::array<std::uint64_t, kFaSlotCount> slot{};
  slot[kSlotA] = a;
  slot[kSlotB] = b;
  slot[kSlotC] = c;
  FaBitResult out;
  for (const FaStep& step : kFaSchedule) {
    std::uint64_t any = 0;
    for (unsigned i = 0; i < step.arity; ++i) {
      const std::uint64_t v = slot[step.inputs[i]];
      any |= v;
      out.nor.input_on += v;
      out.nor.input_off += v ^ 1u;
    }
    slot[step.dst] = any ^ 1u;  // NOR over single bits.
    out.nor.switches += any;    // The '1'-initialized output RESETs.
  }
  out.sum = slot[kSlotS];
  out.carry = slot[kSlotCout];
  return out;
}

/// NOR inputs of one full add: the arities of the 12 steps.
inline constexpr std::uint64_t kFaNorInputs = 23;
/// NOR inputs at '1' and output switches of one full add, indexed by how
/// many of its three input bits are 1: word_fa_bit's counts, tabulated.
inline constexpr std::uint64_t kFaInputsOn[4] = {8, 8, 11, 14};
inline constexpr std::uint64_t kFaSwitches[4] = {4, 7, 9, 9};

/// Full adds on the bit triples of width-`width` words a, b and c (width
/// <= 64), counted by how many of a triple's three bits are 1: three
/// popcounts sort them.
using FaTriples = std::array<std::uint64_t, 4>;
[[nodiscard]] constexpr FaTriples fa_triples(std::uint64_t a, std::uint64_t b,
                                             std::uint64_t c,
                                             unsigned width) noexcept {
  const std::uint64_t mask = util::low_mask(width);
  const auto count = [mask](std::uint64_t bits) {
    return static_cast<std::uint64_t>(util::popcount(bits & mask));
  };
  const std::uint64_t any = count(a | b | c);
  const std::uint64_t two = count((a & b) | (b & c) | (a & c));
  const std::uint64_t three = count(a & b & c);
  return {width - any, any - two, two - three, three};
}

/// NOR events of the full adds `triples` counts; linear in the counts, so
/// the events of several stages are those of their summed triples.
[[nodiscard]] constexpr device::EnergyCounts fa_counts(
    const FaTriples& triples) noexcept {
  device::EnergyCounts e;
  std::uint64_t adds = 0;
  for (unsigned k = 0; k < 4; ++k) {
    adds += triples[k];
    e.input_on += triples[k] * kFaInputsOn[k];
    e.switches += triples[k] * kFaSwitches[k];
  }
  e.input_off = kFaNorInputs * adds - e.input_on;
  return e;
}

/// NOR events of `width` full adds, one on each bit triple of a, b and c.
/// Equals the sum of word_fa_bit's counts over the bits.
[[nodiscard]] constexpr device::EnergyCounts fa_counts(
    std::uint64_t a, std::uint64_t b, std::uint64_t c,
    unsigned width) noexcept {
  return fa_counts(fa_triples(a, b, c, width));
}

/// Evaluate the schedule bit-parallel over `width` lanes (one carry-save
/// 3:2 stage). The returned carry word already includes the <<1 alignment
/// the hardware applies through the interconnect. NOR events only.
struct FaWordResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;  ///< Aligned: carry into bit i+1 is bit i+1 here.
  device::EnergyCounts nor;
};
template <bool kCost = true>
[[nodiscard]] FaWordResult word_fa_stage(std::uint64_t a, std::uint64_t b,
                                         std::uint64_t c, unsigned width);

// -- Serial (ripple) adder: the Talati-style 12N+1 baseline inside APIM ------

/// Add two n-bit numbers (n <= 64) with the serial MAGIC adder: 12n+1
/// cycles. For n < 64 the result has n+1 meaningful bits (carry out
/// included); at n = 64 the carry is reported only via `carry_out`.
template <bool kCost = true>
[[nodiscard]] WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b,
                                             unsigned n);

// -- Wallace-tree reduction ---------------------------------------------------

/// Outcome of reducing M operands to two with the planned 3:2 tree.
struct TreeReduceResult {
  std::uint64_t x = 0;  ///< First remaining addend (plan.final_ids[0]).
  std::uint64_t y = 0;  ///< Second remaining addend (0 when only one left).
  unsigned x_width = 0;
  unsigned y_width = 0;
  unsigned stages = 0;  ///< 3:2 stages executed.
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
};
/// `values[i]` must correspond to `plan.operands[i]` for the initial ids.
[[nodiscard]] TreeReduceResult word_tree_reduce(
    std::span<const std::uint64_t> values, const TreePlan& plan);

/// Allocation-free twin of word_tree_reduce(values, plan_tree_reduction(
/// widths, width_cap, 1, 2)): the same grouping, width growth, block
/// toggling and events, evaluated in place on the caller's arrays of
/// `count` addends. On entry `value[i]` and `width[i]` hold operand i; on
/// return their first one or two entries are the survivors, also copied
/// into the result. `block` is scratch for each addend's processing block
/// (1 or 2), which only the priced tree reads or writes.
///
/// A group of width w takes its inputs masked to w bits and outputs
/// a ^ b ^ c and maj(a, b, c) << 1, the words word_fa_stage's 12 NOR steps
/// compute. Its events are linear in its lanes w, in w times its inputs'
/// distances to the target block and in the popcounts of a | b | c,
/// maj(a, b, c) and a & b & c (fa_triples), so the priced tree sums those
/// five over its groups and counts the tree once. Defined here so that the
/// units built on it (fast_multiply, fast_tree_add) inline it.
template <bool kCost = true>
[[nodiscard]] inline TreeReduceResult word_tree_reduce_in_place(
    std::uint64_t* value, unsigned* width, unsigned char* block,
    std::size_t count, unsigned width_cap) {
  assert(count >= 1);
  assert(width_cap >= 1 && width_cap <= 64);
  // The priced tree's totals over its groups: lanes, lanes times input
  // block distances, and the three popcounts that class the bit triples.
  std::uint64_t lanes = 0, hop_lanes = 0, any = 0, two = 0, three = 0;
  if constexpr (kCost) std::fill_n(block, count, 1);  // Inputs: block 1.
  TreeReduceResult out;
  std::size_t live = count;
  unsigned char target = 2;  // First stage toggles away from the inputs.
  while (live > 2) {
    // Group g reads entries 3g..3g+2 and writes its sum and carry to 2g and
    // 2g+1, which it has already read (g = 0) or which are spent (g > 0);
    // pass-throughs follow the outputs, as in plan_tree_reduction.
    std::size_t next = 0;
    std::size_t i = 0;
    for (; i + 3 <= live; i += 3, next += 2) {
      const unsigned w = std::min(
          std::max({width[i], width[i + 1], width[i + 2]}) + 1, width_cap);
      const std::uint64_t mask = util::low_mask(w);
      const std::uint64_t a = value[i] & mask;
      const std::uint64_t b = value[i + 1] & mask;
      const std::uint64_t c = value[i + 2] & mask;
      const std::uint64_t maj = (a & b) | (c & (a | b));
      if constexpr (kCost) {
        lanes += w;
        hop_lanes += w * static_cast<std::uint64_t>((block[i] != target) +
                                                    (block[i + 1] != target) +
                                                    (block[i + 2] != target));
        any += static_cast<std::uint64_t>(util::popcount(a | b | c));
        two += static_cast<std::uint64_t>(util::popcount(maj));
        three += static_cast<std::uint64_t>(util::popcount(a & b & c));
        block[next] = block[next + 1] = target;
      }
      value[next] = a ^ b ^ c;
      value[next + 1] = maj << 1;  // Interconnect alignment into bit i+1.
      width[next] = width[next + 1] = w;
    }
    for (; i < live; ++i, ++next) {
      value[next] = value[i];
      width[next] = width[i];
      if constexpr (kCost) block[next] = block[i];
    }
    live = next;
    ++out.stages;
    target = target == 2 ? 1 : 2;
  }
  if constexpr (kCost) {
    out.cycles = 13 * util::Cycles{out.stages};  // 1 init + 12 NOR batches.
    out.energy =
        fa_counts(FaTriples{lanes - any, any - two, two - three, three});
    // Each group initializes its 12 x w scratch/output cells, reads each
    // input 4 times across its block distance, and writes its carry one
    // column left through the barrel shifter (the blocked memory's "free
    // shift").
    out.energy.init = 12 * lanes;
    out.energy.interconnect_bits = 4 * hop_lanes + lanes;
  }
  out.x = value[0];
  out.x_width = width[0];
  if (live == 2) {
    out.y = value[1];
    out.y_width = width[1];
  }
  return out;
}

// -- Partial-product generation ----------------------------------------------

/// Throws std::invalid_argument, in every build type, unless 1 <= n <= 32:
/// a multiplier takes one partial product per multiplier bit into arrays
/// of 32 and keeps its 2n-bit product in one word. `unit` names the caller
/// in the message.
inline void check_multiply_width(unsigned n, const char* unit) {
  if (n < 1 || n > 32) {
    throw std::invalid_argument(std::string(unit) +
                                ": n must be in 1..32, got " +
                                std::to_string(n));
  }
}

/// Sense-amp driven partial-product generation (paper Section 3.3):
/// read the multiplier bit-wise; for every '1' bit j, copy-shift the
/// multiplicand by j into the processing block (copy = NOT of a shared
/// inverted image; 1 + popcount cycles in total).
struct PpgResult {
  std::vector<std::uint64_t> partials;  ///< m1 << j for each set bit j.
  std::vector<unsigned> widths;         ///< n + j for each partial.
  util::Cycles cycles = 0;
  device::EnergyCounts energy;
};
/// `mask_bits` low multiplier bits are skipped entirely (first-stage
/// approximation): not read, not copied. Throws std::invalid_argument for
/// n outside 1..32 (check_multiply_width).
[[nodiscard]] PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2,
                                 unsigned n, unsigned mask_bits);

/// word_ppg's events without materializing the partials (allocation-free).
/// `m1` and `effective_m2` are n-bit, and `effective_m2` has its
/// `first_bit` = min(mask_bits, n) low bits cleared; the cycles are
/// ppg_cycles(popcount(effective_m2)).
[[nodiscard]] device::EnergyCounts ppg_counts(std::uint64_t m1,
                                              std::uint64_t effective_m2,
                                              unsigned n,
                                              unsigned first_bit) noexcept;

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
                                            unsigned width, unsigned relax_m);

/// Reference semantics of the relaxed addition (value only, no costs);
/// used by tests and by error-bound analysis. At width 64 the returned
/// word necessarily truncates the carry; the unit results above carry it
/// out-of-band.
[[nodiscard]] std::uint64_t approximate_add_value(std::uint64_t x,
                                                  std::uint64_t y,
                                                  unsigned width,
                                                  unsigned relax_m) noexcept;

}  // namespace apim::arith
