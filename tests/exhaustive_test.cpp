// Exhaustive small-width differential tests: for 4-bit operands, EVERY
// operand pair is executed on the bit-level engine, the fast model, and a
// host-arithmetic reference — across exact and approximate configurations.
// Exhaustiveness at small width complements the randomized sweeps at large
// width: there is no corner left to chance in the space it covers.
#include <gtest/gtest.h>

#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/word_models.hpp"
#include "energy_counts_print.hpp"
#include "util/bitops.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

TEST(Exhaustive, SerialAddAllPairs4Bit) {
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const WordUnitResult fast = word_serial_add(a, b, 4);
      const InMemoryResult engine = inmemory_serial_add(a, b, 4, em());
      ASSERT_EQ(fast.value, a + b) << a << "+" << b;
      ASSERT_EQ(engine.value, a + b);
      ASSERT_EQ(fast.cycles, engine.cycles);
      ASSERT_EQ(fast.energy, engine.energy);
    }
  }
}

TEST(Exhaustive, RelaxedAddAllPairsAllRelaxSettings4Bit) {
  for (unsigned m = 0; m <= 4; ++m) {
    for (std::uint64_t a = 0; a < 16; ++a) {
      for (std::uint64_t b = 0; b < 16; ++b) {
        const WordUnitResult fast = word_final_add(a, b, 4, m);
        const InMemoryResult engine = inmemory_relaxed_add(a, b, 4, m, em());
        ASSERT_EQ(fast.value, engine.value)
            << a << "+" << b << " m=" << m;
        ASSERT_EQ(fast.cycles, engine.cycles);
        ASSERT_EQ(fast.energy, engine.energy);
        // High bits above the relaxed region always exact.
        ASSERT_EQ(fast.value >> m, (a + b) >> m);
      }
    }
  }
}

TEST(Exhaustive, MultiplyAllPairs4BitExact) {
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const MultiplyOutcome fast =
          fast_multiply(a, b, 4, ApproxConfig::exact(), em());
      const InMemoryResult engine =
          inmemory_multiply(a, b, 4, ApproxConfig::exact(), em());
      ASSERT_EQ(fast.product, a * b) << a << "*" << b;
      ASSERT_EQ(engine.value, a * b) << a << "*" << b;
      ASSERT_EQ(fast.cycles, engine.cycles);
      ASSERT_EQ(fast.energy, engine.energy);
    }
  }
}

TEST(Exhaustive, MultiplyAllPairs4BitAllApproxConfigs) {
  for (unsigned mask = 0; mask <= 4; mask += 2) {
    for (unsigned relax = 0; relax <= 8; relax += 4) {
      const ApproxConfig cfg{mask, relax};
      for (std::uint64_t a = 0; a < 16; ++a) {
        for (std::uint64_t b = 0; b < 16; ++b) {
          const MultiplyOutcome fast = fast_multiply(a, b, 4, cfg, em());
          const InMemoryResult engine = inmemory_multiply(a, b, 4, cfg, em());
          ASSERT_EQ(fast.product, engine.value)
              << a << "*" << b << " mask=" << mask << " relax=" << relax;
          ASSERT_EQ(fast.cycles, engine.cycles)
              << a << "*" << b << " mask=" << mask << " relax=" << relax;
          ASSERT_EQ(fast.energy, engine.energy);
          // First-stage semantic: exact product of the masked multiplier,
          // then last-stage relaxation bounded by 2^relax.
          const std::uint64_t masked = a * (b & ~util::low_mask(mask));
          const std::uint64_t diff = fast.product > masked
                                         ? fast.product - masked
                                         : masked - fast.product;
          ASSERT_LT(diff, std::uint64_t{1}
                              << (relax > 8 ? 8 : relax))
              << a << "*" << b;
        }
      }
    }
  }
}

TEST(Exhaustive, CsaAllTriples3Bit) {
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b)
      for (std::uint64_t c = 0; c < 8; ++c) {
        const FaWordResult fast = word_fa_stage(a, b, c, 3);
        const CsaOutcome engine = inmemory_csa(a, b, c, 3, em());
        ASSERT_EQ(fast.sum, engine.sum);
        ASSERT_EQ(fast.carry, engine.carry);
        ASSERT_EQ(fast.sum + fast.carry, a + b + c);
      }
}

}  // namespace
}  // namespace apim::arith
