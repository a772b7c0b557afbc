#include "arith/vector_unit.hpp"

#include <cassert>
#include <utility>

#include "arith/inmemory_fa.hpp"
#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "crossbar/crossbar.hpp"
#include "magic/engine.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace apim::arith {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

namespace {
/// Elements per host-pool chunk for the word-level path.
constexpr std::size_t kWordAddGrain = 256;

/// Lanes per crossbar clone for the bit-level path. Each group of lanes
/// runs the full 12n+1 schedule on its own crossbar; groups are a fixed
/// partition of the lane index space, independent of the thread count.
constexpr std::size_t kLaneGroup = 64;
}  // namespace

VectorAddOutcome fast_vector_add(std::span<const std::uint64_t> a,
                                 std::span<const std::uint64_t> b, unsigned n,
                                 const device::EnergyModel&) {
  assert(a.size() == b.size());
  VectorAddOutcome out;
  if (a.empty()) return out;
  out.cycles = serial_add_cycles(n);  // Shared by every lane.

  std::vector<WordUnitResult> per_lane(a.size());
  util::ThreadPool::global().parallel_for(
      0, a.size(), kWordAddGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k)
          per_lane[k] = word_serial_add(a[k], b[k], n);
      });

  out.sums.reserve(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    out.sums.push_back(per_lane[k].value);
    out.energy += per_lane[k].energy;  // Energy scales; cycles do not.
  }
  return out;
}

namespace {

/// Executes lanes [lane_begin, lane_end) of the vector add on a private
/// crossbar clone — the same layout and schedule as the whole-vector run,
/// restricted to one lane group. Sums land in `sums[k]` (disjoint slots);
/// the engine's stats are returned for the deterministic merge.
magic::EngineStats run_lane_group(std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b, unsigned n,
                                  const device::EnergyModel& em,
                                  std::size_t lane_begin, std::size_t lane_end,
                                  std::vector<std::uint64_t>& sums) {
  const std::size_t lanes_count = lane_end - lane_begin;

  // Layout: 14 rows per lane (a, b, 12 scratch slots) plus one shared
  // never-written '0' reference row at the bottom.
  constexpr std::size_t kRowsPerLane = 14;
  BlockedCrossbar xbar{CrossbarConfig{
      1, lanes_count * kRowsPerLane + 1, std::max<std::size_t>(n + 1, 8)}};
  magic::MagicEngine engine{xbar, em};
  for (std::size_t k = 0; k < lanes_count; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      xbar.block(0).set(k * kRowsPerLane, i,
                        util::bit(a[lane_begin + k], i) != 0);
      xbar.block(0).set(k * kRowsPerLane + 1, i,
                        util::bit(b[lane_begin + k], i) != 0);
    }
  }
  const CellAddr zero_ref{0, lanes_count * kRowsPerLane, 0};

  // Build all lanes' per-bit full-adder maps.
  std::vector<std::vector<FaLaneMap>> lane_bits(lanes_count);
  std::vector<CellAddr> init_cells;
  init_cells.reserve(12 * n * lanes_count);
  for (std::size_t k = 0; k < lanes_count; ++k) {
    lane_bits[k].reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr av{0, k * kRowsPerLane, i};
      const CellAddr bv{0, k * kRowsPerLane + 1, i};
      const CellAddr c = (i == 0)
                             ? zero_ref
                             : lane_bits[k][i - 1].cell(kSlotCout);
      lane_bits[k].push_back(make_fa_lane(av, bv, c, 0,
                                          k * kRowsPerLane + 2, i, 0));
      append_lane_init_cells(lane_bits[k].back(), init_cells);
    }
  }

  // One shared init cycle, then 12 NOR batches per bit position, each
  // batch spanning EVERY lane of the group: 12n + 1 cycles regardless of
  // lane count.
  engine.init_cells(init_cells);
  std::vector<magic::NorOp> batch;
  batch.reserve(lanes_count);
  for (unsigned i = 0; i < n; ++i) {
    for (const FaStep& step : kFaSchedule) {
      batch.clear();
      for (std::size_t k = 0; k < lanes_count; ++k) {
        magic::NorOp op;
        op.dst = lane_bits[k][i].cell(step.dst);
        for (unsigned s = 0; s < step.arity; ++s)
          op.inputs.push_back(lane_bits[k][i].cell(step.inputs[s]));
        batch.push_back(std::move(op));
      }
      engine.nor_parallel(batch);
    }
  }

  for (std::size_t k = 0; k < lanes_count; ++k) {
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < n; ++i)
      if (xbar.get(lane_bits[k][i].cell(kSlotS))) sum |= std::uint64_t{1} << i;
    if (xbar.get(lane_bits[k][n - 1].cell(kSlotCout)))
      sum |= std::uint64_t{1} << n;
    sums[lane_begin + k] = sum;
  }
  return engine.stats();
}

}  // namespace

VectorAddOutcome inmemory_vector_add(std::span<const std::uint64_t> a,
                                     std::span<const std::uint64_t> b,
                                     unsigned n,
                                     const device::EnergyModel& em) {
  assert(a.size() == b.size());
  assert(n >= 1 && n <= 63);
  VectorAddOutcome out;
  if (a.empty()) return out;

  // One crossbar clone per lane group, groups partitioned across the host
  // pool. Every group runs the identical 12n+1-cycle schedule, so the
  // wall latency is one group's cycle count; the groups' event counts add
  // up.
  const std::size_t groups = (a.size() + kLaneGroup - 1) / kLaneGroup;
  std::vector<magic::EngineStats> group_stats(groups);
  out.sums.assign(a.size(), 0);
  util::ThreadPool::global().parallel_for(
      0, a.size(), kLaneGroup, [&](std::size_t lo, std::size_t hi) {
        group_stats[lo / kLaneGroup] =
            run_lane_group(a, b, n, em, lo, hi, out.sums);
      });

  out.cycles = group_stats.front().cycles;
  for (const magic::EngineStats& s : group_stats) {
    assert(s.cycles == out.cycles);  // Same schedule in every group.
    out.energy += s.energy;
  }
  return out;
}

}  // namespace apim::arith
