// Seeded load generation for the serving runtime.
//
// Open loop: a Poisson arrival process at a configured offered rate —
// requests arrive on the simulated clock whether or not the server keeps
// up, which is what exposes the throughput-latency curve (and queueing
// collapse past saturation). Code that paces requests on completions (the
// analytics waves) stages them through Server::stage_request instead.
//
// Everything derives from an explicit seed through util::Xoshiro256, so a
// trace is bit-identical across runs, platforms and host thread counts.
// Requests name their app but carry no QoS criterion (serve/request.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace apim::serve {

struct LoadGenConfig {
  std::size_t requests = 1000;
  /// Mean offered load in requests per 1000 simulated cycles (Poisson).
  double rate_per_kcycle = 1.0;
  std::uint64_t seed = 2017;
  /// Tenant apps, drawn uniformly per request; empty means "" (exact).
  std::vector<std::string> apps;
  /// Operand pairs per request, drawn uniformly in [min_ops, max_ops].
  std::size_t min_ops = 8;
  std::size_t max_ops = 8;
  unsigned width = 32;
  /// Fraction of requests that are vector adds (rest are multiplies).
  double add_fraction = 0.0;
  /// Relative deadline applied to every request; 0 = none.
  util::Cycles deadline = 0;
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
};

/// Generate an open-loop trace: requests sorted by arrival cycle. Throws
/// std::invalid_argument, in every build type, when `rate_per_kcycle` is
/// not finite and positive, `min_ops` is 0 or `min_ops` > `max_ops`.
///
/// Draw order, one draw per statement so that no compiler can reorder it:
/// per request, (1) the interarrival gap, (2) the app index if `apps` is
/// non-empty, (3) the op kind, (4) the op count if max_ops > min_ops, then
/// (5) for each operand pair its `second` operand and then its `first`,
/// the order earlier builds drew in, so their traces still hold.
[[nodiscard]] std::vector<Request> make_open_loop_trace(
    const LoadGenConfig& cfg);

}  // namespace apim::serve
