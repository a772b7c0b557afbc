// Batch executor: run one coalesced dispatch through the device models.
//
// Every op of the batch executes on an ApimDevice clone configured with
// the batch shape (width, relax, reliability policy), so approximation
// error, residue checks, retry ladders and fault injection behave exactly
// as in direct device use. Host execution follows the repo's determinism
// contract (util/thread_pool.hpp): ops are chunked with a fixed grain,
// each chunk runs on a private device clone, and per-op results merge
// serially in index order — values, cycles and energy are bit-identical
// for every host thread count.
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

namespace apim::serve {

/// Op indices per host-pool chunk (fixed, never thread-count derived).
inline constexpr std::size_t kExecutorGrain = 64;

struct BatchExecution {
  /// Result values, one vector per member request, in member order.
  std::vector<std::vector<std::uint64_t>> values;
  util::Cycles makespan = 0;  ///< Dispatch-to-done latency of the batch.
  util::Cycles total_lane_cycles = 0;
  std::size_t lanes_used = 0;
  double energy_pj = 0.0;  ///< Total incl. per-cycle controller overhead.
  core::ExecStats stats;   ///< Aggregated device stats (reliability etc).
};

/// Execute `members` (each a span of operand pairs) as one dispatch of
/// shape `key` on a stream with `lanes` lanes. `base` supplies everything
/// the shape does not override: energy model, backend, fault table and
/// retry budget.
[[nodiscard]] BatchExecution execute_batch(
    std::span<const std::span<const std::pair<std::uint64_t, std::uint64_t>>>
        members,
    const BatchKey& key, std::size_t lanes, const core::ApimConfig& base);

}  // namespace apim::serve
