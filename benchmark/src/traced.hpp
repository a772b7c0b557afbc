// The traced run: per-layer metrics from an event log and timed replays.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace apim_bench {

/// Set the workload up, alternate untraced and traced runs for `seconds`,
/// derive the modeled latency split from the event log, replay the logged
/// work through the public layer entry points with timing, and write the
/// host spans to `<out_dir>/<workload>.spans.jsonl`.
[[nodiscard]] Result run_traced(Workload& w, std::uint64_t seed,
                                double seconds, const std::string& out_dir);

}  // namespace apim_bench
