// 64-op slice entry points over the word models.
//
// Each slice function is a per-lane loop over fast_multiply or fast_add
// (bitsliced_compare_slice, in compare_units.hpp, over fast_compare), so
// out[i] is the scalar word-model result for ops[i], energy doubles
// included. On the host the word models beat evaluating 64 transposed
// lanes at once, so no device path calls these: every core::Backend but
// the bit-level one runs the word models directly (core/config.hpp). The
// functions and transpose64 stay only for the end-to-end benchmark's
// per-layer timings and the slice-vs-word tests
// (tests/bitsliced_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/approx.hpp"
#include "arith/fast_units.hpp"
#include "device/energy_model.hpp"

namespace apim::arith {

/// Most ops one slice call takes.
inline constexpr std::size_t kBitsliceLanes = 64;

/// Transpose a 64x64 bit matrix: bit i of out[l] == bit l of in[i].
/// (Self-inverse; moves between lane-major words and bit planes.)
void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept;

/// Execute up to 64 same-shape multiplies (shared n <= 32 and ApproxConfig),
/// one fast_multiply per lane: out[i] is fast_multiply(ops[i].first,
/// ops[i].second, n, cfg, em).
void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, const device::EnergyModel& em,
    std::span<MultiplyOutcome> out);

/// Execute up to 64 same-shape adds (shared n <= 64 and requested relax),
/// one fast_add per lane: out[i] is fast_add(ops[i].first, ops[i].second,
/// n, relax_m, em), including carry_out.
void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, const device::EnergyModel& em,
    std::span<AddOutcome> out);

}  // namespace apim::arith
