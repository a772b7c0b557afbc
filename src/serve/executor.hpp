// Batch executor: run one coalesced dispatch through the device models.
//
// Every op of the batch executes on an ApimDevice configured with the
// batch shape (width, relax, reliability policy), so approximation error,
// residue checks, retry ladders and fault injection behave exactly as in
// direct device use. One serial pass walks the ops in member order and
// starts a fresh device every kExecutorGrain ops, so op indices and fault
// draws depend only on the op count — values, cycles and energy are
// bit-identical for every host thread count.
//
// This is the simulator's one lane-makespan model. Latency semantics per
// op kind:
//  * kMultiply — ops round-robin over the stream's lanes in op order; the
//    batch makespan is the slowest lane's cycle sum.
//  * kVectorAdd / kCompare / kPopcount — row-parallel inside a tile
//    (arith/vector_unit.hpp): these are all adder-pass schedules, so every
//    op shares one pass, the makespan is the slowest SINGLE op and one
//    lane is occupied, while energy scales with the count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/apim.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "util/inline_vec.hpp"

namespace apim::serve {

/// Ops per device: the op index restarts every kExecutorGrain ops.
inline constexpr std::size_t kExecutorGrain = 64;

struct BatchExecution {
  /// Result values, one per member request, in member order; a member of
  /// one or two ops keeps them inline and hands them to its Response
  /// without a heap block.
  std::vector<util::InlineVec<std::uint64_t>> values;
  util::Cycles makespan = 0;  ///< Dispatch-to-done latency of the batch.
  util::Cycles total_lane_cycles = 0;
  std::size_t lanes_used = 0;
  double energy_pj = 0.0;  ///< Total incl. per-cycle controller overhead.
  core::ExecStats stats;   ///< Aggregated device stats (reliability etc).
};

/// Execute `members` (each a span of operand pairs) as one dispatch of
/// shape `key` on a stream with `lanes` lanes. `base` supplies everything
/// the shape does not override: energy model, backend, fault table and
/// retry budget. Throws std::invalid_argument, in every build type, when
/// `lanes` is 0.
[[nodiscard]] BatchExecution execute_batch(
    std::span<const std::span<const std::pair<std::uint64_t, std::uint64_t>>>
        members,
    const BatchKey& key, std::size_t lanes, const core::ApimConfig& base);

}  // namespace apim::serve
