// Bit-level example: watching the MAGIC engine execute in-memory addition
// cell by cell.
//
// This example works at the lowest public layer — the blocked crossbar and
// the MAGIC engine — and shows that the paper's cycle formulas are not
// assumptions but measured behaviour of the executed NOR schedules:
//   * serial N-bit addition:      12N + 1 cycles,
//   * 3:2 carry-save stage:       13 cycles at ANY width,
//   * 9-operand Wallace tree:     4 stages + one serial add,
//   * relaxed final addition:     13k + 2m + 1 cycles.
#include <cstdio>
#include <vector>

#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "device/energy_model.hpp"
#include "util/bitops.hpp"

int main() {
  using namespace apim;
  const auto& em = device::EnergyModel::paper_defaults();

  std::puts("== MAGIC-level in-memory addition trace ==\n");

  // Serial ripple adder (the Talati-style baseline APIM builds on).
  for (unsigned n : {8u, 16u, 32u}) {
    const auto r = arith::inmemory_serial_add(0xA5A5A5A5 & util::mask_n(n),
                                              0x5A5A5A5A & util::mask_n(n),
                                              n, em);
    std::printf("serial %2u-bit add: value=%llu  cycles=%llu (formula 12N+1 = "
                "%llu)  energy=%.2f pJ\n",
                n, static_cast<unsigned long long>(r.value),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(arith::serial_add_cycles(n)),
                em.energy_pj(r.energy));
  }

  // Carry-save 3:2 stage: width-independent latency.
  std::puts("");
  for (unsigned width : {8u, 32u, 48u}) {
    const std::uint64_t mask = util::mask_n(width);
    const std::uint64_t a = 0x0F0F0F0Full & mask;
    const std::uint64_t b = 0x33CC33CCull & mask;
    const std::uint64_t c = 0x55AA55AAull & mask;
    const auto r = arith::inmemory_csa(a, b, c, width, em);
    std::printf("CSA %2u-bit 3:2 stage: sum+carry preserved=%s  cycles=%llu "
                "(always 13)\n",
                width, (r.sum + r.carry) == a + b + c ? "yes" : "NO",
                static_cast<unsigned long long>(r.cycles));
  }

  // Nine-operand Wallace tree (the paper's Figure 2(b) example).
  std::puts("");
  std::vector<std::uint64_t> nine(9);
  std::vector<unsigned> widths(9, 16);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    nine[i] = 0x1111 * (i + 1) & 0xFFFF;
    total += nine[i];
  }
  const auto tree = arith::inmemory_tree_add(nine, widths, 20, em);
  std::printf("9 x 16-bit tree add: value=%llu (expected %llu)  cycles=%llu "
              "(4 stages x 13 + serial tail)\n",
              static_cast<unsigned long long>(tree.value),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(tree.cycles));

  // Relaxed final addition at several k/m splits.
  std::puts("");
  for (unsigned m : {0u, 8u, 16u, 32u}) {
    const auto r = arith::inmemory_relaxed_add(0xDEAD1234, 0xBEEF5678, 32, m, em);
    std::printf("relaxed 32-bit add m=%2u: value=%llu  cycles=%llu (formula "
                "13k+2m+1 = %llu)\n",
                m, static_cast<unsigned long long>(r.value),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(arith::final_add_cycles(32, m)));
  }

  std::puts("\nEvery number above was measured by executing NOR micro-ops on "
            "simulated memristor cells — the same schedules the fast "
            "functional model reproduces closed-form (and the property "
            "tests hold the two equal).");
  return 0;
}
