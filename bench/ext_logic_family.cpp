// Extension: logic-family comparison — MAGIC NOR vs IMPLY stateful logic.
//
// The paper's related work (Section 2) surveys stateful implication logic
// [21, 22] before settling on MAGIC NOR "due to its simplicity and
// independence of execution from data in memory". This bench quantifies
// that choice with both families implemented on the same crossbar
// substrate and the same VTEAM-derived energy model: serial n-bit addition
// costs 12n+1 cycles in MAGIC vs 27n in IMPLY (9 NANDs x 3 steps per bit).
#include <cstdio>
#include <string>

#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "bench_common.hpp"
#include "magic/imply.hpp"
#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace apim;
  const auto& em = device::EnergyModel::paper_defaults();

  std::puts("=== Extension: MAGIC NOR vs IMPLY serial addition ===\n");

  util::TextTable table({"N", "MAGIC cycles", "IMPLY cycles", "ratio",
                         "MAGIC energy (pJ)", "IMPLY energy (pJ)"});
  util::CsvWriter csv("ext_logic_family.csv");
  csv.write_row({"n", "magic_cycles", "imply_cycles", "magic_energy_pj",
                 "imply_energy_pj"});

  bench::ShapeChecker checks;
  util::Xoshiro256 rng(0x1812);
  bool values_agree = true;
  double ratio_at_32 = 0.0;
  for (unsigned n = 4; n <= 32; n += 4) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const arith::InMemoryResult magic_r = arith::inmemory_serial_add(a, b, n, em);
    const magic::ImplyAddResult imply_r = magic::imply_serial_add(a, b, n, em);
    values_agree &= magic_r.value == imply_r.value &&
                    magic_r.value == a + b;
    const double ratio = static_cast<double>(imply_r.cycles) /
                         static_cast<double>(magic_r.cycles);
    if (n == 32) ratio_at_32 = ratio;
    table.add_row({std::to_string(n), std::to_string(magic_r.cycles),
                   std::to_string(imply_r.cycles),
                   util::format_factor(ratio, 2),
                   util::format_double(em.energy_pj(magic_r.energy), 1),
                   util::format_double(imply_r.energy_ops_pj, 1)});
    csv.write_row({std::to_string(n), std::to_string(magic_r.cycles),
                   std::to_string(imply_r.cycles),
                   util::format_double(em.energy_pj(magic_r.energy), 2),
                   util::format_double(imply_r.energy_ops_pj, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  checks.check("both families compute exact sums", values_agree);
  checks.check_range("IMPLY/MAGIC latency ratio at N=32 (27N vs 12N+1)",
                     ratio_at_32, 2.0, 2.5);
  std::puts("\nAnd on top of MAGIC, APIM's tree reduces multi-operand adds "
            "further (see fig6_adder_compare).");
  return checks.finish();
}
