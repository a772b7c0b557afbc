#include "serve/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bitops.hpp"

namespace apim::serve {

namespace {

core::ApimConfig shape_config(const BatchKey& key,
                              const core::ApimConfig& base) {
  core::ApimConfig cfg = base;
  cfg.word_bits = key.width;
  cfg.approx.relax_bits = key.relax_bits;
  cfg.reliability.policy = key.policy;
  return cfg;
}

std::uint64_t run_op(core::ApimDevice& device, OpKind op, std::uint64_t a,
                     std::uint64_t b) {
  switch (op) {
    case OpKind::kMultiply: return device.mul_magnitude(a, b);
    case OpKind::kVectorAdd: return device.add_magnitude(a, b);
    case OpKind::kCompare: return device.cmp_magnitude(a, b);
    case OpKind::kPopcount: return device.popcnt_magnitude(a);
  }
  return 0;
}

}  // namespace

BatchExecution execute_batch(
    std::span<const std::span<const std::pair<std::uint64_t, std::uint64_t>>>
        members,
    const BatchKey& key, std::size_t lanes, const core::ApimConfig& base) {
  // Checked in every build type: a multiply spreads its ops over the lanes
  // by op index modulo the lane count.
  if (lanes == 0)
    throw std::invalid_argument("execute_batch: lanes must be >= 1");
  BatchExecution out;
  out.values.resize(members.size());

  std::size_t total_ops = 0;
  for (const auto& ops : members) total_ops += ops.size();
  if (total_ops == 0) return out;

  // Clamp to the shape's word width, exactly as
  // ApimDevice::clamp_magnitude does in direct device use.
  const std::uint64_t cap = util::mask_n(key.width);
  const auto clamp = [cap](std::uint64_t v) { return v > cap ? cap : v; };
  const core::ApimConfig cfg = shape_config(key, base);

  // Adder-pass shapes (add/compare/popcount) are row-parallel: one lane,
  // shared serial pass. Only multiplies spread over the stream's lanes.
  const bool multiply = key.op == OpKind::kMultiply;
  out.lanes_used = multiply ? std::min(lanes, total_ops) : 1;
  std::vector<util::Cycles> lane_cycles(out.lanes_used, 0);

  // A fresh device every kExecutorGrain ops: the op index (lane
  // assignment, transient fault draws) restarts at each boundary, which
  // depends only on the op count.
  core::ApimDevice device{cfg};
  std::size_t op = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    out.values[m].reserve(members[m].size());
    for (const auto& [a, b] : members[m]) {
      if (op > 0 && op % kExecutorGrain == 0) {
        out.stats.merge(device.stats());
        device = core::ApimDevice{cfg};
      }
      const util::Cycles before = device.stats().cycles;
      out.values[m].push_back(run_op(device, key.op, clamp(a), clamp(b)));
      const util::Cycles cycles = device.stats().cycles - before;
      if (multiply) {
        lane_cycles[op % out.lanes_used] += cycles;
      } else {
        // Row-parallel: every op shares the pass; the slowest op (retry
        // ladders can lengthen one) bounds the batch.
        lane_cycles[0] = std::max(lane_cycles[0], cycles);
      }
      out.total_lane_cycles += cycles;
      ++op;
    }
  }
  out.stats.merge(device.stats());

  out.makespan = *std::max_element(lane_cycles.begin(), lane_cycles.end());
  out.energy_pj = out.stats.energy_ops_pj +
                  static_cast<double>(out.stats.cycles) *
                      cfg.energy.e_cycle_overhead_pj;
  return out;
}

}  // namespace apim::serve
