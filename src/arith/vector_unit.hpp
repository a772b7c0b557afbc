// Row-parallel vector addition: many additions at the latency of one.
//
// MAGIC evaluation is voltage-driven, not data-driven, so any number of
// NOR evaluations with disjoint cells can share a cycle (paper Section 3.2:
// "multiple addition operations can execute in parallel if the inputs are
// mapped correctly"). A batch of K independent n-bit additions laid out in
// K row groups of one crossbar therefore completes in the SAME 12n+1
// cycles as a single addition — K times the energy, 1/K the latency per
// element. This is the intra-tile parallelism underneath the chip model's
// lane count, demonstrated here at both simulation levels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::arith {

struct VectorAddOutcome {
  std::vector<std::uint64_t> sums;  ///< (n+1)-bit results, in order.
  util::Cycles cycles = 0;          ///< 12n+1, independent of the count.
  device::EnergyCounts energy;      ///< Scales with the count.
};

/// Word-level model: K exact n-bit additions in one row-parallel pass.
/// Sums, cycles and energy are bit-identical for every host thread count.
[[nodiscard]] VectorAddOutcome fast_vector_add(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    unsigned n, const device::EnergyModel& em);

/// Bit-level twin: executes all K ripple adders concurrently (lane
/// bit-steps batched across each lane group per cycle). Lane groups of a
/// fixed size each run on a private crossbar clone, spread across the
/// host thread pool; sums, cycles and energy are bit-identical for every
/// host thread count.
[[nodiscard]] VectorAddOutcome inmemory_vector_add(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    unsigned n, const device::EnergyModel& em);

}  // namespace apim::arith
