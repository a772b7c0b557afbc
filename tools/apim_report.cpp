// apim_report: prints the "datasheet" of the modeled APIM part — device
// parameters, derived per-operation costs, chip organization, arithmetic
// latency laws, and endurance expectations — everything a user needs to
// sanity-check the simulator's operating point in one page. It takes no
// arguments: any argument exits 2 with "apim_report: error:".
#include <cstdio>

#include "arith/error_model.hpp"
#include "arith/latency_model.hpp"
#include "baseline/prior_adders.hpp"
#include "core/area_model.hpp"
#include "core/chip.hpp"
#include "device/energy_model.hpp"
#include "device/vteam.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace apim;

  if (argc > 1) {
    std::fprintf(stderr, "apim_report: error: unexpected argument '%s'\n",
                 argv[1]);
    return 2;
  }

  std::puts("================ APIM modeled-part datasheet ================\n");

  // Device layer.
  const device::VteamModel vteam;
  const auto& p = vteam.params();
  const auto reset = vteam.integrate_reset(2.0);
  const auto set = vteam.integrate_set(-2.0);
  std::puts("[ VTEAM memristor ]");
  std::printf("  RON / ROFF:        %.0f kOhm / %.1f MOhm\n", p.r_on / 1e3,
              p.r_off / 1e6);
  std::printf("  thresholds:        v_on %.1f V, v_off %.1f V\n", p.v_on,
              p.v_off);
  std::printf("  RESET @2V:         %.3f ns, %.3f fJ\n", reset.time_s * 1e9,
              reset.energy_pj * 1e3);
  std::printf("  SET   @-2V:        %.3f ns, %.3f fJ\n", set.time_s * 1e9,
              set.energy_pj * 1e3);
  std::printf("  MAGIC cycle:       %.1f ns\n\n", util::kMagicCycleNs);

  // Energy price list.
  const auto& em = device::EnergyModel::paper_defaults();
  std::puts("[ per-operation energy (pJ) ]");
  std::printf("  NOR input @1/@0:   %.4f / %.6f\n", em.e_input_on_pj,
              em.e_input_off_pj);
  std::printf("  cell switch:       %.5f\n", em.e_switch_pj);
  std::printf("  output init:       %.5f\n", em.e_init_pj);
  std::printf("  SA read / MAJ:     %.4f / %.4f\n", em.e_read_pj,
              em.e_maj_pj);
  std::printf("  interconnect/bit:  %.4f\n", em.e_interconnect_bit_pj);
  std::printf("  controller/cycle:  %.3f\n\n", em.e_cycle_overhead_pj);

  // Arithmetic latency laws.
  std::puts("[ latency laws (cycles) ]");
  std::printf("  serial add (N):    12N+1   -> N=32: %llu\n",
              static_cast<unsigned long long>(arith::serial_add_cycles(32)));
  std::printf("  3:2 CSA stage:     13 (any width)\n");
  std::printf("  tree reduce (M):   13*stages -> M=32: %llu\n",
              static_cast<unsigned long long>(arith::tree_reduce_cycles(32)));
  std::printf("  final add (2N,m):  13k+2m+1 -> m=32: %llu\n",
              static_cast<unsigned long long>(arith::final_add_cycles(64, 32)));
  std::printf("  32x32 mul (exact): ~%.0f expected on random data\n",
              arith::expected_multiply_cycles(32, arith::ApproxConfig::exact()));
  std::printf("  32x32 mul (m=32):  ~%.0f expected\n\n",
              arith::expected_multiply_cycles(
                  32, arith::ApproxConfig::last_stage(32)));

  // Relaxed-adder error law.
  std::puts("[ relaxation error law ]");
  std::printf("  per-bit wrongness: %.0f%% on random data\n",
              arith::relaxed_bit_error_rate() * 100.0);
  std::printf("  RMS(m):            ~2^m/3 -> m=16: %.3g, m=32: %.3g\n",
              arith::relaxed_add_error_rms(16),
              arith::relaxed_add_error_rms(32));
  std::printf("  hard bound:        |err| < 2^m\n\n");

  // Chip organization.
  const core::ApimChip chip;
  const auto& g = chip.geometry();
  std::puts("[ chip organization ]");
  std::printf("  banks x tiles:     %zu x %zu (%zu active/bank)\n", g.banks,
              g.tiles_per_bank, g.active_tiles_per_bank);
  std::printf("  tile geometry:     %zu blocks x %zu rows x %zu cols\n",
              g.blocks_per_tile, g.rows, g.cols);
  std::printf("  data capacity:     %.2f GiB\n",
              chip.capacity_bytes() / (1024.0 * 1024 * 1024));
  std::printf("  parallel lanes:    %zu\n", chip.parallel_lanes());
  std::printf("  cells total:       %.3g (processing overhead %.0f%%)\n\n",
              chip.total_cells(), chip.processing_area_overhead() * 100.0);

  // Area model.
  const auto area = core::chip_area(g);
  const auto plain = core::plain_memory_area(g);
  std::puts("[ area model @45nm ]");
  std::printf("  chip total:        %.1f mm^2 (cells %.1f, decoders %.2f, "
              "SAs %.2f, interconnect %.2f)\n",
              area.total_mm2(), area.cell_area_mm2, area.decoder_area_mm2,
              area.sense_amp_area_mm2, area.interconnect_area_mm2);
  std::printf("  periphery:         %.1f%% of die\n",
              area.periphery_fraction() * 100.0);
  std::printf("  vs plain memory:   %.2fx (the PIM area overhead)\n\n",
              area.total_mm2() / plain.total_mm2());

  // Prior-work reference points.
  std::puts("[ prior-work reference (32 operands x 32 bits) ]");
  std::printf("  APIM tree add:     %llu cycles\n",
              static_cast<unsigned long long>(arith::tree_add_cycles(32, 32)));
  std::printf("  PC-Adder [25]:     %llu cycles\n",
              static_cast<unsigned long long>(
                  baseline::PcAdder::multi_add_cycles(32, 32)));
  std::printf("  Talati [24]:       %llu cycles\n",
              static_cast<unsigned long long>(
                  baseline::TalatiAdder::multi_add_cycles(32, 32)));
  return 0;
}
