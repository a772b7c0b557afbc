// Tests of the row-parallel vector adder: K additions at the latency of
// one, equivalence between simulation levels, and the scaling laws.
#include <gtest/gtest.h>

#include <vector>

#include "arith/latency_model.hpp"
#include "arith/vector_unit.hpp"
#include "energy_counts_print.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
random_vectors(std::size_t k, unsigned n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> a, b;
  for (std::size_t i = 0; i < k; ++i) {
    a.push_back(rng.next() & util::low_mask(n));
    b.push_back(rng.next() & util::low_mask(n));
  }
  return {a, b};
}

TEST(VectorAdd, SumsAreExact) {
  const auto [a, b] = random_vectors(16, 16, 131);
  const VectorAddOutcome fast = fast_vector_add(a, b, 16, em());
  ASSERT_EQ(fast.sums.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(fast.sums[i], a[i] + b[i]) << i;
}

TEST(VectorAdd, LatencyIsIndependentOfLaneCount) {
  // The headline property: 1, 4 or 32 additions — same 12n+1 cycles.
  for (std::size_t k : {1u, 4u, 32u}) {
    const auto [a, b] = random_vectors(k, 16, 132 + k);
    const VectorAddOutcome fast = fast_vector_add(a, b, 16, em());
    EXPECT_EQ(fast.cycles, serial_add_cycles(16)) << "k=" << k;
    const VectorAddOutcome engine = inmemory_vector_add(a, b, 16, em());
    EXPECT_EQ(engine.cycles, serial_add_cycles(16)) << "k=" << k;
  }
}

TEST(VectorAdd, EnergyScalesLinearlyWithLanes) {
  const auto [a1, b1] = random_vectors(4, 16, 133);
  const auto [a2, b2] = random_vectors(8, 16, 133);  // Superset stats-wise.
  const double e1 = em().energy_pj(fast_vector_add(a1, b1, 16, em()).energy);
  const double e2 = em().energy_pj(fast_vector_add(a2, b2, 16, em()).energy);
  EXPECT_NEAR(e2 / e1, 2.0, 0.2);  // Random data: ~2x within noise.
}

TEST(VectorAdd, EngineMatchesFastModelExactly) {
  for (std::size_t k : {1u, 3u, 8u}) {
    const auto [a, b] = random_vectors(k, 12, 134 + k);
    const VectorAddOutcome fast = fast_vector_add(a, b, 12, em());
    const VectorAddOutcome engine = inmemory_vector_add(a, b, 12, em());
    ASSERT_EQ(fast.sums, engine.sums) << "k=" << k;
    ASSERT_EQ(fast.cycles, engine.cycles);
    ASSERT_EQ(fast.energy, engine.energy);
  }
}

TEST(VectorAdd, EmptyInput) {
  const std::vector<std::uint64_t> none;
  const VectorAddOutcome out = fast_vector_add(none, none, 16, em());
  EXPECT_TRUE(out.sums.empty());
  EXPECT_EQ(out.cycles, 0u);
}

TEST(VectorAdd, ThroughputAdvantageOverSequentialIssue) {
  // K sequential device adds cost K * (12n+1); the vector unit costs
  // 12n+1 — the factor the chip model's lanes are built on.
  const std::size_t k = 16;
  const auto [a, b] = random_vectors(k, 32, 140);
  const VectorAddOutcome vec = fast_vector_add(a, b, 32, em());
  const util::Cycles sequential = k * serial_add_cycles(32);
  EXPECT_EQ(vec.cycles * k, sequential);
}

}  // namespace
}  // namespace apim::arith
