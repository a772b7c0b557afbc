#include "reliability/bist.hpp"

#include <cassert>

namespace apim::reliability {

namespace {

using crossbar::CellAddr;

/// One march element over a row: drive every cell to `value` (one
/// row-parallel driver cycle), then read every cell back through the SAs
/// (one cycle) and compare. Returns true when every cell held `value`.
bool march_element(crossbar::BlockedCrossbar& xbar, std::size_t block,
                   std::size_t row, std::size_t col_begin, std::size_t col_end,
                   bool value, const device::EnergyModel& em,
                   BistCost& cost) {
  bool ok = true;
  for (std::size_t c = col_begin; c < col_end; ++c) {
    const bool flipped = xbar.set(CellAddr{block, row, c}, value);
    cost.energy_pj += em.write_energy_pj(flipped);
  }
  cost.cycles += 1;  // All bitline drivers fire together.
  for (std::size_t c = col_begin; c < col_end; ++c) {
    if (xbar.get(CellAddr{block, row, c}) != value) ok = false;
    cost.energy_pj += em.e_read_pj;
  }
  cost.cycles += 1;  // Row-parallel SA readback.
  return ok;
}

/// Full march over one row: W0 R0, W1 R1, W0 restore.
bool march_row(crossbar::BlockedCrossbar& xbar, std::size_t block,
               std::size_t row, std::size_t col_begin, std::size_t col_end,
               const device::EnergyModel& em, BistCost& cost) {
  const bool zeros_ok =
      march_element(xbar, block, row, col_begin, col_end, false, em, cost);
  const bool ones_ok =
      march_element(xbar, block, row, col_begin, col_end, true, em, cost);
  // Restore the zero background (scratch convention between operations).
  for (std::size_t c = col_begin; c < col_end; ++c) {
    const bool flipped = xbar.set(CellAddr{block, row, c}, false);
    cost.energy_pj += em.write_energy_pj(flipped);
  }
  cost.cycles += 1;
  return zeros_ok && ones_ok;
}

}  // namespace

MarchReport march_scan(crossbar::BlockedCrossbar& xbar, std::size_t block,
                       std::size_t row_begin, std::size_t row_end,
                       std::size_t col_begin, std::size_t col_end,
                       const device::EnergyModel& em) {
  assert(row_end <= xbar.config().rows);
  assert(col_end <= xbar.config().cols);
  MarchReport report;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    if (!march_row(xbar, block, r, col_begin, col_end, em, report.cost))
      report.faulty_rows.push_back(r);
    ++report.rows_scanned;
    report.cells_tested += col_end - col_begin;
  }
  return report;
}

RepairReport scan_and_repair(crossbar::BlockedCrossbar& xbar,
                             std::size_t block, std::size_t row_begin,
                             std::size_t row_end, std::size_t col_begin,
                             std::size_t col_end,
                             const device::EnergyModel& em) {
  RepairReport report;
  const MarchReport scan =
      march_scan(xbar, block, row_begin, row_end, col_begin, col_end, em);
  report.cost.merge(scan.cost);
  report.faulty_rows = scan.faulty_rows.size();
  for (const std::size_t row : scan.faulty_rows) {
    bool repaired = false;
    // A replacement spare can itself be defective: re-test after every
    // remap and burn the next spare until the row comes back clean.
    while (xbar.remap_row(block, row)) {
      ++report.spares_used;
      if (march_row(xbar, block, row, col_begin, col_end, em, report.cost)) {
        repaired = true;
        break;
      }
    }
    if (!repaired) ++report.unrepaired_rows;
  }
  return report;
}

}  // namespace apim::reliability
