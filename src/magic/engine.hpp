// MAGIC execution engine: runs micro-operations on a BlockedCrossbar with
// cycle and energy accounting.
//
// Cycle-accounting convention (matches the paper's numbers; see DESIGN.md):
//  * one NOR evaluation — or any set of NOR evaluations issued in the same
//    `nor_parallel` batch (row-parallel MAGIC) — costs 1 cycle (1.1 ns);
//  * initializing output cells to '1' costs 1 cycle, or 0 cycles when
//    `overlapped` is set (disjoint regions can be initialized while the SA
//    carry chain works elsewhere, which is how the approximate final stage
//    reaches its 2m+1 cycle count);
//  * a single-bit SA read is sub-cycle (0.3 ns) and overlaps copy work, so
//    it charges energy only;
//  * an SA majority evaluation (0.3 ns read + 0.6 ns compute) fits in one
//    cycle and charges 1;
//  * a data write (driver-based, not MAGIC) costs 1 cycle per issued batch.
//
// Energy: every micro-op adds to one device::EnergyCounts (NOR inputs at
// '1' and '0', output switches and flipping writes, inits, driver writes,
// reads, majorities, interconnect bit-hops), which energy_pj() prices
// through device::EnergyModel together with the per-cycle
// controller/decoder cost. The word-level models (src/arith/
// word_models.hpp, fast_units.hpp) count the same events in closed form,
// and property tests compare the two count vectors with ==.
#pragma once

#include <cstdint>
#include <span>

#include "crossbar/crossbar.hpp"
#include "device/energy_model.hpp"
#include "magic/ops.hpp"
#include "magic/trace.hpp"
#include "util/units.hpp"

namespace apim::magic {

/// Breakdown of accumulated costs, used by tests and ablation benches.
struct EngineStats {
  util::Cycles cycles = 0;
  device::EnergyCounts energy;  ///< Micro-op events, excluding overhead.
  std::uint64_t nor_ops = 0;
};

class MagicEngine {
 public:
  MagicEngine(crossbar::BlockedCrossbar& crossbar,
              const device::EnergyModel& energy);

  [[nodiscard]] crossbar::BlockedCrossbar& crossbar() noexcept { return xbar_; }

  // -- Micro-operations ----------------------------------------------------

  /// Initialize cells to logic '1' (unconditional SET), the precondition of
  /// every MAGIC output cell. 1 cycle, or 0 when `overlapped`.
  void init_cells(std::span<const crossbar::CellAddr> cells,
                  bool overlapped = false);

  /// Single NOR (1 cycle).
  void nor(const crossbar::CellAddr& dst,
           std::span<const crossbar::CellAddr> inputs);

  /// Row-parallel batch of NORs sharing one cycle. Destinations must be
  /// distinct cells; each op may have a different input arity.
  void nor_parallel(std::span<const NorOp> ops);

  /// Sense-amplifier single-bit read: energy only, no cycle.
  [[nodiscard]] bool read_bit(const crossbar::CellAddr& addr);

  /// Sense-amplifier majority of three cells on one bitline: 1 cycle.
  [[nodiscard]] bool sa_majority(const crossbar::CellAddr& a,
                                 const crossbar::CellAddr& b,
                                 const crossbar::CellAddr& c);

  /// Driver write of one bit (1 cycle).
  void write_bit(const crossbar::CellAddr& addr, bool value);

  /// Driver write of a word along columns (1 cycle: all bitline drivers
  /// fire together under one wordline).
  void write_word(const crossbar::CellAddr& start, unsigned width,
                  std::uint64_t value);

  /// Read a word functionally (no cycles/energy: used by checkers and by
  /// result extraction, which the paper does not charge to the operation).
  [[nodiscard]] std::uint64_t peek_word(const crossbar::CellAddr& start,
                                        unsigned width) const;

  /// Charge idle/controller cycles (used when modelling steps whose work
  /// happens in peripheral logic).
  void add_idle_cycles(util::Cycles n);

  /// Charge the barrel-shifter routing cost for `bits` bit-paths (used by
  /// schedules whose writes go through the interconnect with a column
  /// shift, e.g. the carry alignment of a 3:2 stage). No cycles: the shift
  /// rides on the write it accompanies.
  void charge_interconnect(std::uint64_t bits);

  // -- Accounting ----------------------------------------------------------

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] util::Cycles cycles() const noexcept { return stats_.cycles; }
  /// Total energy: the priced event counts plus the per-cycle controller
  /// overhead.
  [[nodiscard]] double energy_pj() const noexcept;
  /// Reset counters (cell contents are preserved).
  void reset_stats() noexcept { stats_ = {}; }

  [[nodiscard]] const device::EnergyModel& energy_model() const noexcept {
    return energy_;
  }

  /// Attach an op tracer (nullptr detaches). Not owned.
  void attach_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }


 private:
  /// Executes one NOR without charging a cycle (shared by nor/nor_parallel).
  void execute_nor(const NorOp& op);

  void trace(OpKind kind, std::uint32_t cells, bool overlapped = false);

  /// Row-resolved cell event (only when the attached tracer opted in).
  void trace_cell(OpKind kind, CellAccess access,
                  const crossbar::CellAddr& addr, util::Cycles cycle);
  [[nodiscard]] bool cell_trace_on() const noexcept {
    return tracer_ != nullptr && tracer_->cell_events_enabled();
  }

  crossbar::BlockedCrossbar& xbar_;
  const device::EnergyModel& energy_;
  EngineStats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace apim::magic
