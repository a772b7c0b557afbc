// Per-operation energy model derived from the VTEAM device model.
//
// The paper obtains performance/energy of the APIM hardware "from circuit
// level simulations for a 45nm CMOS process ... using Cadence Virtuoso"
// with the VTEAM memristor model (Section 4.1). We substitute a single
// up-front numerical integration of the same VTEAM model: switching time
// and energy come from the ODE, conduction terms from Ohmic dissipation at
// the operating point, and periphery costs from PeripheryParams.
//
// Both simulation levels count micro-op events, not picojoules: the MAGIC
// engine and the word models each report an EnergyCounts, and the two
// agree count for count. A count vector becomes energy in one place,
// EnergyModel::energy_pj, a dot product in a fixed order, so an op's
// energy does not depend on the order its events were counted in.
#pragma once

#include <cstdint>

#include "device/device_params.hpp"
#include "device/vteam.hpp"

namespace apim::device {

/// Micro-op events of one operation (or of a run), one count per priced
/// class of EnergyModel except the per-cycle overhead, which is charged
/// per cycle. A data write that flips its cell counts one write and one
/// switch.
struct EnergyCounts {
  std::uint64_t input_on = 0;           ///< NOR inputs at '1'.
  std::uint64_t input_off = 0;          ///< NOR inputs at '0'.
  std::uint64_t switches = 0;           ///< Output RESETs and cell flips.
  std::uint64_t init = 0;               ///< Cells initialized to '1'.
  std::uint64_t writes = 0;             ///< Driver bit writes.
  std::uint64_t reads = 0;              ///< Sense-amp single-bit reads.
  std::uint64_t majority = 0;           ///< Sense-amp MAJ evaluations.
  std::uint64_t interconnect_bits = 0;  ///< Bit-hops through the interconnect.

  constexpr EnergyCounts& operator+=(const EnergyCounts& o) noexcept {
    input_on += o.input_on;
    input_off += o.input_off;
    switches += o.switches;
    init += o.init;
    writes += o.writes;
    reads += o.reads;
    majority += o.majority;
    interconnect_bits += o.interconnect_bits;
    return *this;
  }
  /// Counts of a later snapshot minus an earlier one (every count of `a`
  /// is at least `b`'s).
  [[nodiscard]] friend constexpr EnergyCounts operator-(
      EnergyCounts a, const EnergyCounts& b) noexcept {
    a.input_on -= b.input_on;
    a.input_off -= b.input_off;
    a.switches -= b.switches;
    a.init -= b.init;
    a.writes -= b.writes;
    a.reads -= b.reads;
    a.majority -= b.majority;
    a.interconnect_bits -= b.interconnect_bits;
    return a;
  }
  [[nodiscard]] bool operator==(const EnergyCounts&) const = default;
};

/// Energy price list (picojoules) for the crossbar micro-operations.
struct EnergyModel {
  /// Conduction through one NOR input held at logic '1' (RON) for a cycle.
  double e_input_on_pj = 0.0;
  /// Conduction through one NOR input at logic '0' (ROFF) for a cycle.
  double e_input_off_pj = 0.0;
  /// Output-cell switching event (RON -> ROFF during NOR evaluation, or a
  /// data write that flips the cell).
  double e_switch_pj = 0.0;
  /// Unconditional SET applied when initializing MAGIC output cells to '1'.
  double e_init_pj = 0.0;
  /// Driver cost of writing one bit (in addition to e_switch when the cell
  /// actually flips).
  double e_write_driver_pj = 0.0;
  /// One sense-amplifier single-bit read.
  double e_read_pj = 0.0;
  /// One sense-amplifier majority (MAJ) evaluation (Section 3.4).
  double e_maj_pj = 0.0;
  /// Routing one bit through the configurable interconnect during a
  /// copy-with-shift.
  double e_interconnect_bit_pj = 0.0;
  /// Controller/decoder/driver background cost charged once per cycle.
  double e_cycle_overhead_pj = 0.0;

  /// Energy of `c`, excluding the per-cycle overhead (charged separately
  /// per cycle, since many micro-ops can share a cycle when executed
  /// row-parallel): each count times its price, summed in field order.
  [[nodiscard]] double energy_pj(const EnergyCounts& c) const noexcept {
    return static_cast<double>(c.input_on) * e_input_on_pj +
           static_cast<double>(c.input_off) * e_input_off_pj +
           static_cast<double>(c.switches) * e_switch_pj +
           static_cast<double>(c.init) * e_init_pj +
           static_cast<double>(c.writes) * e_write_driver_pj +
           static_cast<double>(c.reads) * e_read_pj +
           static_cast<double>(c.majority) * e_maj_pj +
           static_cast<double>(c.interconnect_bits) * e_interconnect_bit_pj;
  }

  /// Energy of writing one bit; `flips` says whether the stored value
  /// actually changes (no switching energy otherwise).
  [[nodiscard]] double write_energy_pj(bool flips) const noexcept {
    return e_write_driver_pj + (flips ? e_switch_pj : 0.0);
  }

  /// Derive the table from a device model and operating point. Performs two
  /// ODE integrations (SET and RESET); call once and reuse.
  [[nodiscard]] static EnergyModel from_device(const VteamModel& device,
                                               const OperatingPoint& op,
                                               const PeripheryParams& periphery);

  /// The model used throughout this reproduction: default VteamParams
  /// (RON = 10 kOhm, ROFF = 10 MOhm, calibrated 1 ns-class switching),
  /// default operating point and periphery.
  [[nodiscard]] static const EnergyModel& paper_defaults();
};

}  // namespace apim::device
