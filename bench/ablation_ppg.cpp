// Ablation: sense-amplifier partial-product generation vs the naive
// AND-array approach (paper Section 3.3).
//
// Naive PPG computes each partial product as AND(M1, m2_j) with three NOR
// operations per bit: 3N cycles per partial product, N partial products,
// and it writes rows even for zero multiplier bits. APIM reads the
// multiplier through the sense amplifier and only copies for '1' bits:
// 1 + popcount cycles total, with proportional energy savings.
#include <cstdio>
#include <string>

#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "bench_common.hpp"
#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {
using namespace apim;

/// Naive AND-array PPG: 3 NOR cycles per bit per partial product (the AND
/// of eq. (2)), all N partial products generated unconditionally.
util::Cycles naive_ppg_cycles(unsigned n) { return 3ull * n * n; }

double naive_ppg_energy_pj(unsigned n, const device::EnergyModel& em) {
  // Three NORs per bit: price with average one '1' input per NOR and a
  // 50% output-switch rate, plus init for the three scratch cells.
  const double per_bit = 3.0 * (em.e_input_on_pj + em.e_input_off_pj +
                                0.5 * em.e_switch_pj + em.e_init_pj);
  return per_bit * static_cast<double>(n) * static_cast<double>(n);
}

}  // namespace

int main() {
  std::puts("=== Ablation: SA-driven PPG vs naive AND-array PPG ===\n");
  const auto& em = device::EnergyModel::paper_defaults();

  util::TextTable table({"N", "SA PPG (cycles)", "AND PPG (cycles)",
                         "cycle gain", "SA PPG (pJ)", "AND PPG (pJ)",
                         "energy gain"});
  util::CsvWriter csv("ablation_ppg.csv");
  csv.write_row({"n", "sa_cycles", "and_cycles", "sa_energy_pj",
                 "and_energy_pj"});

  bench::ShapeChecker checks;
  double gain_at_32 = 0.0;
  for (unsigned n = 8; n <= 32; n += 8) {
    util::Xoshiro256 rng(800 + n);
    util::RunningStats sa_cycles, sa_energy;
    for (int t = 0; t < 200; ++t) {
      const std::uint64_t m1 = rng.next() & util::low_mask(n);
      const std::uint64_t m2 = rng.next() & util::low_mask(n);
      const arith::PpgResult r = arith::word_ppg(m1, m2, n, 0);
      sa_cycles.add(static_cast<double>(r.cycles));
      sa_energy.add(em.energy_pj(r.energy));
    }
    const double cycle_gain =
        static_cast<double>(naive_ppg_cycles(n)) / sa_cycles.mean();
    const double energy_gain = naive_ppg_energy_pj(n, em) / sa_energy.mean();
    if (n == 32) gain_at_32 = cycle_gain;
    table.add_row({std::to_string(n), util::format_double(sa_cycles.mean(), 1),
                   std::to_string(naive_ppg_cycles(n)),
                   util::format_factor(cycle_gain, 1),
                   util::format_double(sa_energy.mean(), 1),
                   util::format_double(naive_ppg_energy_pj(n, em), 1),
                   util::format_factor(energy_gain, 1)});
    csv.write_row({std::to_string(n), util::format_double(sa_cycles.mean(), 2),
                   std::to_string(naive_ppg_cycles(n)),
                   util::format_double(sa_energy.mean(), 2),
                   util::format_double(naive_ppg_energy_pj(n, em), 2)});
    checks.check("N=" + std::to_string(n) + ": SA PPG is faster and cheaper",
                 cycle_gain > 1.0 && energy_gain > 1.0);
  }
  std::fputs(table.render().c_str(), stdout);

  // The gap grows quadratically-vs-linearly: ~3N^2 vs ~N/2.
  checks.check_range("cycle gain at N=32 (3*32^2=3072 vs ~17 cycles)",
                     gain_at_32, 100.0, 400.0);
  return checks.finish();
}
