// Bitsliced (tier-3) execution of homogeneous operation slices.
//
// APIM executes the same NOR schedule across all crossbar rows of a block
// simultaneously; this unit reproduces that data-parallel structure on the
// host by transposing up to 64 independent operations into bit-plane form
// (lane l's operand bit i becomes bit l of plane i) and evaluating the
// shared carry recurrence once per bit position with plain bitwise ops.
// Cycles come from the closed-form latency laws (12n+1 serial, 13-cycle
// CSA stages, 13k+2m+1 relaxed final stage); per-lane energy comes from
// the word models' per-triple FaEnergyTable (word_models.hpp), indexed by
// the lanes' bit triples.
//
// Fidelity contract: every per-lane outcome — value, cycles AND the energy
// double — is bit-identical to the scalar word-level model (fast_multiply /
// fast_add), because the energy is accumulated with the exact same floating
// point expressions in the exact same order; the table merely memoizes
// word_fa_bit's deterministic per-triple result. The cross-backend gate
// (tests/bitsliced_equivalence_test.cpp) enforces this with operator==.
//
// Multiplier trees are per-lane heterogeneous (the reduction plan depends
// on the multiplier's set-bit pattern), so bitsliced_multiply_slice runs
// fast_multiply per lane and the device has no multiply slice row.
// Standalone adds (shared width/relax) bitslice end to end.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/approx.hpp"
#include "arith/fast_units.hpp"
#include "device/energy_model.hpp"

namespace apim::arith {

/// Lanes per slice: one host word of bit-planes.
inline constexpr std::size_t kBitsliceLanes = 64;

/// Transpose a 64x64 bit matrix: bit i of out[l] == bit l of in[i].
/// (Self-inverse; used to move between lane-major operands and bit planes.)
void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept;

/// Execute up to 64 same-shape multiplies (shared n <= 32 and ApproxConfig),
/// one fast_multiply per lane: out[i] is fast_multiply(ops[i].first,
/// ops[i].second, n, cfg, em).
void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, const device::EnergyModel& em,
    std::span<MultiplyOutcome> out);

/// Execute up to 64 same-shape adds (shared n <= 64 and requested relax;
/// the profitable_add_relax dispatch is applied exactly as fast_add does).
/// out[i] is bit-identical to fast_add(ops[i].first, ops[i].second, n,
/// relax_m, em), including carry_out.
void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, const device::EnergyModel& em,
    std::span<AddOutcome> out);

}  // namespace apim::arith
