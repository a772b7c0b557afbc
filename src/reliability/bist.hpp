// Built-in self test: march scan and spare-row repair for the crossbar.
//
// Online detection for the fabric itself. A march test writes a known
// background into a row, reads it back, writes the complement, reads it
// back, and restores — any cell that cannot hold both values is defective,
// so a single pass flags every stuck-at fault in the scanned region
// (march element W0 R0 W1 R1 W0, a reduced MATS+ march; soundness is
// property-tested in tests/reliability_test.cpp: a healthy fabric is never
// flagged, a seeded stuck-at in a scanned row always is).
//
// The scan is destructive, so it only ever runs over SCRATCH rows of
// processing blocks — their contents are re-initialized by every MAGIC
// schedule anyway. Costs are real: writes/reads go through the crossbar
// (adding wear, as physical BIST does) and the reported cycle/energy cost
// is charged to the device that owns the fabric
// (ApimDevice::charge_reliability_overhead).
//
// Repair: scan_and_repair remaps every flagged row onto a spare
// (BlockedCrossbar::remap_row) and re-tests the replacement, burning
// additional spares when a spare itself is defective, until the logical
// row tests clean or the block runs out of spares (the row is then
// reported unrepaired and survives only via the device's retry ladder).
#pragma once

#include <cstddef>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::reliability {

struct BistCost {
  util::Cycles cycles = 0;
  double energy_pj = 0.0;

  void merge(const BistCost& other) noexcept {
    cycles += other.cycles;
    energy_pj += other.energy_pj;
  }
};

struct MarchReport {
  std::vector<std::size_t> faulty_rows;  ///< Logical rows that failed.
  std::size_t rows_scanned = 0;
  std::size_t cells_tested = 0;
  BistCost cost;
};

/// March-scan logical rows [row_begin, row_end) of `block`, columns
/// [col_begin, col_end). Accesses go through the crossbar's decoder path,
/// so already-remapped rows test their spare replacement.
[[nodiscard]] MarchReport march_scan(crossbar::BlockedCrossbar& xbar,
                                     std::size_t block, std::size_t row_begin,
                                     std::size_t row_end,
                                     std::size_t col_begin,
                                     std::size_t col_end,
                                     const device::EnergyModel& em);

struct RepairReport {
  std::size_t faulty_rows = 0;     ///< Rows the initial scan flagged.
  std::size_t spares_used = 0;     ///< Spares consumed (incl. bad spares).
  std::size_t unrepaired_rows = 0; ///< Still faulty after spares ran out.
  BistCost cost;
};

/// Scan the region and quarantine every faulty row onto a spare,
/// re-testing each replacement. Returns what was found, fixed, and spent.
RepairReport scan_and_repair(crossbar::BlockedCrossbar& xbar,
                             std::size_t block, std::size_t row_begin,
                             std::size_t row_end, std::size_t col_begin,
                             std::size_t col_end,
                             const device::EnergyModel& em);

}  // namespace apim::reliability
