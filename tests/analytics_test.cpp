// Differential tests for the analytics operators (src/analytics/) and the
// compare/popcount micro-kernels they ride on (src/arith/compare_units.*).
//
// Operator coverage: every operator runs against the host scalar oracle
// (tests/analytics_harness.hpp) bit for bit over 21 seeded table pairs —
// uniform, Zipf-skewed, unique, all-duplicate, empty, and single-row —
// across backends {kFast, kBitsliced, kBitLevel} and host thread counts
// {1, 2, 7}. Kernel coverage: engine-vs-word fidelity (values, cycles
// and energy event counts exact), bitsliced-vs-word identity (event
// counts included), and device-level protection
// behavior (compare exact under relax; popcount triple-voted under
// detect policies, which have no mod-3 residue for it). Preconditions:
// an unknown column, an order count outside the key width, mismatched
// group_aggregate inputs and a running sum past 32 bits throw in every
// build type.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/operators.hpp"
#include "analytics/table.hpp"
#include "analytics/tpch.hpp"
#include "analytics_harness.hpp"
#include "arith/compare_units.hpp"
#include "arith/inmemory_units.hpp"
#include "core/apim.hpp"
#include "energy_counts_print.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using apim::analytics::Runner;
using apim::analytics_harness::check_operators;
using apim::analytics_harness::KeyDist;
using apim::analytics_harness::make_test_table;
using apim::analytics_harness::runner_config;
using apim::analytics_harness::TableSpec;

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { apim::util::set_thread_count(0); }
};

struct TablePair {
  TableSpec left;
  TableSpec right;
  std::string label;
};

// 21 seeded table pairs spanning the distribution and degeneracy space.
// `rows`/widths scale down for the bit-level engine sweep.
std::vector<TablePair> roster(std::size_t rows, unsigned key_w,
                              unsigned val_w) {
  std::vector<TablePair> out;
  auto spec = [&](std::uint64_t seed, KeyDist dist, std::size_t r,
                  const char* name) {
    TableSpec s;
    s.rows = r;
    s.key_width = key_w;
    s.val_width = val_w;
    s.dist = dist;
    s.key_pool = 8;
    s.seed = seed;
    s.name = name;
    return s;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    out.push_back({spec(seed, KeyDist::kUniform, rows, "left"),
                   spec(seed + 100, KeyDist::kUniform, rows, "right"),
                   "uniform-" + std::to_string(seed)});
  for (std::uint64_t seed = 7; seed <= 10; ++seed)
    out.push_back({spec(seed, KeyDist::kZipf, rows, "left"),
                   spec(seed + 100, KeyDist::kUniform, rows, "right"),
                   "zipf-" + std::to_string(seed)});
  for (std::uint64_t seed = 11; seed <= 13; ++seed)
    out.push_back({spec(seed, KeyDist::kUniqueShuffled, rows, "left"),
                   spec(seed + 100, KeyDist::kUniqueShuffled, rows, "right"),
                   "unique-" + std::to_string(seed)});
  out.push_back({spec(14, KeyDist::kAllEqual, rows, "left"),
                 spec(114, KeyDist::kAllEqual, rows, "right"),
                 "all-dup-cross-product"});
  out.push_back({spec(15, KeyDist::kAllEqual, rows, "left"),
                 spec(115, KeyDist::kUniform, rows, "right"),
                 "all-dup-left"});
  out.push_back({spec(16, KeyDist::kUniform, 0, "left"),
                 spec(116, KeyDist::kUniform, rows, "right"), "empty-left"});
  out.push_back({spec(17, KeyDist::kUniform, rows, "left"),
                 spec(117, KeyDist::kUniform, 0, "right"), "empty-right"});
  out.push_back({spec(18, KeyDist::kUniform, 0, "left"),
                 spec(118, KeyDist::kUniform, 0, "right"), "both-empty"});
  out.push_back({spec(19, KeyDist::kUniform, 1, "left"),
                 spec(119, KeyDist::kUniform, 1, "right"), "single-row"});
  out.push_back({spec(20, KeyDist::kUniform, rows, "left"),
                 spec(120, KeyDist::kUniform, 1, "right"),
                 "single-row-right"});
  out.push_back({spec(21, KeyDist::kZipf, rows, "left"),
                 spec(121, KeyDist::kZipf, rows, "right"), "zipf-both"});
  return out;
}

void sweep_backend(apim::core::Backend backend,
                   const std::vector<TablePair>& pairs) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    apim::util::set_thread_count(threads);
    for (const TablePair& p : pairs) {
      Runner runner(runner_config(backend));
      const std::string violation = check_operators(
          runner, make_test_table(p.left), make_test_table(p.right));
      ASSERT_EQ(violation, "")
          << p.label << " with " << threads << " host threads";
    }
  }
}

// -- Operator differential sweeps --------------------------------------------

TEST(AnalyticsDifferential, FastBackend) {
  sweep_backend(apim::core::Backend::kFast, roster(48, 8, 9));
}

TEST(AnalyticsDifferential, BitslicedBackend) {
  sweep_backend(apim::core::Backend::kBitsliced, roster(48, 8, 9));
}

// Bit-level MAGIC engine: every compare/add/popcount NOR-simulated. Tiny
// tables keep the sweep inside the test timeout; the table ROSTER (all 21
// shapes, all 3 thread counts) is the same as the word-level sweeps.
TEST(AnalyticsDifferential, EngineBackend) {
  sweep_backend(apim::core::Backend::kBitLevel, roster(10, 5, 5));
}

// Served analytic work must be bit-identical for every host worker count:
// values are pinned by the oracle above, so this checks the serving-side
// observables (ops, batches, energy) too.
TEST(AnalyticsDifferential, DeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;
  const TablePair pair = roster(48, 8, 9).front();
  apim::util::set_thread_count(1);
  Runner ref(runner_config(apim::core::Backend::kBitsliced));
  ASSERT_EQ("", check_operators(ref, make_test_table(pair.left),
                                make_test_table(pair.right)));
  for (const std::size_t threads : {2u, 7u}) {
    apim::util::set_thread_count(threads);
    Runner run(runner_config(apim::core::Backend::kBitsliced));
    ASSERT_EQ("", check_operators(run, make_test_table(pair.left),
                                  make_test_table(pair.right)));
    EXPECT_EQ(run.waves(), ref.waves());
    EXPECT_EQ(run.requests(), ref.requests());
    EXPECT_EQ(run.ops(), ref.ops());
    EXPECT_EQ(run.energy_pj(), ref.energy_pj());  // Bit-exact double.
    EXPECT_EQ(run.virtual_now(), ref.virtual_now());
    EXPECT_EQ(run.snapshot().batches, ref.snapshot().batches);
    EXPECT_EQ(run.snapshot().batched_ops, ref.snapshot().batched_ops);
  }
}

// -- Compare micro-kernel fidelity -------------------------------------------

TEST(CompareKernel, EngineMatchesWordModel) {
  const auto em = apim::device::EnergyModel::paper_defaults();
  apim::util::Xoshiro256 rng(0xc0117a5e);
  for (int iter = 0; iter < 120; ++iter) {
    const unsigned n = 4 + static_cast<unsigned>(rng.next_below(13));
    const std::uint64_t mask = apim::util::low_mask(n);
    const std::uint64_t a = rng.next() & mask;
    std::uint64_t b = rng.next() & mask;
    if (iter % 5 == 0) b = a;  // Force the equality path regularly.
    const apim::arith::CompareOutcome fast =
        apim::arith::fast_compare(a, b, n, em);
    const apim::arith::InMemoryResult engine =
        apim::arith::inmemory_compare(a, b, n, em);
    ASSERT_EQ(engine.value, fast.sum) << "a=" << a << " b=" << b << " n=" << n;
    ASSERT_EQ(engine.carry_out, fast.code == apim::arith::kCmpGt);
    ASSERT_EQ(engine.cycles, fast.cycles);
    ASSERT_EQ(static_cast<apim::util::Cycles>(12 * n + 3), fast.cycles);
    ASSERT_EQ(engine.energy, fast.energy);
    ASSERT_EQ(apim::arith::compare_code(engine.value, engine.carry_out, n),
              fast.code);
    // Semantics: the three-way code is the magnitude order.
    const std::uint64_t want = a < b   ? apim::arith::kCmpLt
                               : a == b ? apim::arith::kCmpEq
                                        : apim::arith::kCmpGt;
    ASSERT_EQ(fast.code, want);
  }
}

TEST(CompareKernel, BitslicedBitIdenticalToWordModel) {
  const auto em = apim::device::EnergyModel::paper_defaults();
  apim::util::Xoshiro256 rng(0xb175);
  for (const unsigned n : {4u, 8u, 17u, 32u}) {
    const std::uint64_t mask = apim::util::low_mask(n);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
    for (int i = 0; i < 64; ++i)
      ops.emplace_back(rng.next() & mask, rng.next() & mask);
    ops[7].second = ops[7].first;  // One guaranteed tie per slice.
    std::vector<apim::arith::CompareOutcome> out(ops.size());
    apim::arith::bitsliced_compare_slice(ops, n, em, out);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const apim::arith::CompareOutcome fast =
          apim::arith::fast_compare(ops[i].first, ops[i].second, n, em);
      ASSERT_EQ(out[i].code, fast.code) << "lane " << i << " n " << n;
      ASSERT_EQ(out[i].sum, fast.sum);
      ASSERT_EQ(out[i].cycles, fast.cycles);
      ASSERT_EQ(out[i].energy, fast.energy);  // Bit-exact.
      ASSERT_EQ(out[i].carry_out, fast.carry_out);
    }
  }
}

// -- Popcount micro-kernel fidelity ------------------------------------------

TEST(PopcountKernel, EngineMatchesWordModel) {
  const auto em = apim::device::EnergyModel::paper_defaults();
  apim::util::Xoshiro256 rng(0x9090);
  for (int iter = 0; iter < 60; ++iter) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(16));
    const std::uint64_t x = rng.next() & apim::util::low_mask(n);
    const apim::arith::AddOutcome fast = apim::arith::fast_popcount(x, n, em);
    const apim::arith::InMemoryResult engine =
        apim::arith::inmemory_popcount(x, n, em);
    ASSERT_EQ(fast.sum, static_cast<std::uint64_t>(std::popcount(x)));
    ASSERT_EQ(engine.value, fast.sum);
    ASSERT_EQ(engine.cycles, fast.cycles);
    ASSERT_EQ(engine.energy, fast.energy);
  }
}

TEST(PopcountKernel, WidthCapBoundsEveryCount) {
  // The count of n set bits needs exactly bit_width(n) bits.
  for (unsigned n = 1; n <= 64; ++n) {
    const unsigned cap = apim::arith::popcount_width_cap(n);
    ASSERT_LE(apim::util::bit_width(n), cap);
    ASSERT_LE(n, apim::util::low_mask(cap) + 1);
  }
}

// -- Device-level protection semantics ---------------------------------------

TEST(DeviceOps, CompareExactUnderRelaxAndPolicies) {
  apim::util::Xoshiro256 rng(0xdead);
  for (const auto policy : {apim::reliability::ReliabilityPolicy::kOff,
                            apim::reliability::ReliabilityPolicy::kDetectOnly,
                            apim::reliability::ReliabilityPolicy::
                                kDetectAndRepair}) {
    apim::core::ApimConfig cfg;
    cfg.word_bits = 16;
    cfg.approx.relax_bits = 6;  // Compares must ignore the relax level.
    cfg.reliability.policy = policy;
    apim::core::ApimDevice dev(cfg);
    for (int iter = 0; iter < 40; ++iter) {
      const std::uint64_t a = rng.next() & 0xffff;
      const std::uint64_t b = rng.next() & 0xffff;
      const std::uint64_t want = a < b   ? apim::arith::kCmpLt
                                 : a == b ? apim::arith::kCmpEq
                                          : apim::arith::kCmpGt;
      ASSERT_EQ(dev.cmp_magnitude(a, b), want);
    }
    ASSERT_EQ(dev.stats().comparisons, 40u);
  }
}

TEST(DeviceOps, PopcountExactUnderPolicies) {
  apim::util::Xoshiro256 rng(0xbeef);
  for (const auto policy : {apim::reliability::ReliabilityPolicy::kOff,
                            apim::reliability::ReliabilityPolicy::kDetectOnly,
                            apim::reliability::ReliabilityPolicy::
                                kDetectAndRepair,
                            apim::reliability::ReliabilityPolicy::
                                kTripleVote}) {
    apim::core::ApimConfig cfg;
    cfg.word_bits = 32;
    cfg.reliability.policy = policy;
    apim::core::ApimDevice dev(cfg);
    for (int iter = 0; iter < 40; ++iter) {
      const std::uint64_t x = rng.next() & 0xffffffffu;
      ASSERT_EQ(dev.popcnt_magnitude(x),
                static_cast<std::uint64_t>(std::popcount(x)));
    }
    ASSERT_EQ(dev.stats().popcounts, 40u);
  }
}

// -- Preconditions, checked in every build type -----------------------------

TEST(AnalyticsPreconditions, UnknownColumnThrowsOutOfRange) {
  apim::analytics::Table table;
  table.columns.push_back({"l_quantity", 6, {1, 2}});
  EXPECT_EQ(&table.col("l_quantity"), &table.columns.front());
  EXPECT_THROW((void)table.col("l_price"), std::out_of_range);
  table.columns.clear();
  EXPECT_THROW((void)table.col("l_quantity"), std::out_of_range);
}

TEST(AnalyticsPreconditions, MakeTablesRejectsOrdersOutsideTheKeyWidth) {
  apim::analytics::TpchConfig cfg;
  cfg.orders = 0;
  EXPECT_THROW((void)apim::analytics::make_tables(cfg),
               std::invalid_argument);
  cfg.orders = 65536;  // o_orderkey is 16 bits wide.
  EXPECT_THROW((void)apim::analytics::make_tables(cfg),
               std::invalid_argument);
  cfg.orders = 1;
  EXPECT_EQ(apim::analytics::make_tables(cfg).orders.rows(), 1u);
}

TEST(AnalyticsPreconditions, GroupAggregateRejectsMismatchedSizes) {
  Runner runner(runner_config(apim::core::Backend::kFast));
  const std::vector<std::uint64_t> keys = {1, 2, 1, 3};
  const std::vector<std::uint64_t> values = {5, 6, 7, 8};
  const std::vector<std::uint64_t> short_values = {5, 6, 7};
  const std::vector<bool> short_mask = {true, false, true};
  EXPECT_THROW((void)apim::analytics::group_aggregate(runner, keys,
                                                      short_values, 8),
               std::invalid_argument);
  EXPECT_THROW((void)apim::analytics::group_aggregate(runner, keys, values, 8,
                                                      &short_mask),
               std::invalid_argument);
  EXPECT_EQ(apim::analytics::group_aggregate(runner, keys, values, 8).size(),
            3u);
}

TEST(AnalyticsPreconditions, TreeSumRejectsARunningSumPast32Bits) {
  // The second round adds 2^32 + 1: a Release build clamped the 33-bit
  // operand to the word width and returned 2^32 instead of 2^32 + 1.
  Runner runner(runner_config(apim::core::Backend::kFast));
  const std::uint64_t top = 0xffffffffu;
  EXPECT_THROW((void)apim::analytics::tree_sum(runner, {top, 1, 1}),
               std::invalid_argument);
  EXPECT_EQ(apim::analytics::tree_sum(runner, {top - 2, 1, 1}), top);
}

}  // namespace
