// Cross-backend equivalence gate for the batch paths and the slice shims.
//
// The contract under test (arith/bitsliced.hpp): every lane of a slice
// call produces values, cycle counts AND energy doubles that are
// bit-identical (operator==) to the scalar word-level models — which are
// themselves property-tested against the bit-level MAGIC engine
// (tests/arith_equivalence_test.cpp). The slice functions are per-lane
// word-model loops, so the third leg holds by construction; it stays until
// the shims retire. The gate closes the triangle three ways:
//
//   bit-level engine  ==  word models   (values/cycles exact, energy to
//                                        summation-order tolerance)
//   word models       ==  slice shims   (everything exact, incl. energy)
//
// plus the carry-out boundary contract at widths 63/64, and the batch
// paths: the served executor (serve::execute_batch) across backends,
// degenerate shapes and thread counts, and every device batch entry point
// against its scalar loop under every backend and reliability policy.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arith/bitsliced.hpp"
#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "core/apim.hpp"
#include "reliability/fault_state.hpp"
#include "reliability/policy.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

/// Engine-vs-word energy comparisons inherit the summation-order tolerance
/// of the existing equivalence suite; word-vs-bitsliced uses operator==.
constexpr double kEnergyTolPj = 1e-9;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

/// Operand pairs that exercise carries hard: random, all-ones (guaranteed
/// carry out), complementary, and zero lanes, for `count` lanes.
std::vector<std::pair<std::uint64_t, std::uint64_t>> carry_heavy_pairs(
    std::size_t count, unsigned n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::uint64_t mask = util::low_mask(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0: ops.emplace_back(rng.next() & mask, rng.next() & mask); break;
      case 1: ops.emplace_back(mask, mask); break;  // Overflows for n >= 1.
      case 2: {
        const std::uint64_t a = rng.next() & mask;
        ops.emplace_back(a, mask - a);  // Sum == mask: carry chain primed.
        break;
      }
      default: ops.emplace_back(0, rng.next() & mask); break;
    }
  }
  return ops;
}

// ------------------------------------------------------------ transpose ---

TEST(Transpose64, MatchesBitByBitDefinition) {
  util::Xoshiro256 rng(11);
  std::uint64_t in[64], out[64];
  for (auto& w : in) w = rng.next();
  transpose64(in, out);
  for (unsigned l = 0; l < 64; ++l)
    for (unsigned i = 0; i < 64; ++i)
      ASSERT_EQ(util::bit(out[i], l), util::bit(in[l], i))
          << "lane " << l << " bit " << i;
}

TEST(Transpose64, IsSelfInverse) {
  util::Xoshiro256 rng(12);
  std::uint64_t in[64], once[64], twice[64];
  for (auto& w : in) w = rng.next();
  transpose64(in, once);
  transpose64(once, twice);
  for (unsigned l = 0; l < 64; ++l) ASSERT_EQ(twice[l], in[l]);
}

// ---------------------------------------------- add slices vs word model --

struct AddSliceCase {
  unsigned n;
  unsigned relax_m;  ///< Requested; profitable_add_relax applies inside.
  std::size_t count;
};

class BitslicedAddEquivalence
    : public ::testing::TestWithParam<AddSliceCase> {};

TEST_P(BitslicedAddEquivalence, LanesMatchFastAddExactly) {
  const auto [n, relax_m, count] = GetParam();
  const auto ops =
      carry_heavy_pairs(count, n, 6000 + 131 * n + 17 * relax_m + count);
  std::vector<AddOutcome> sliced(count);
  bitsliced_add_slice(ops, n, relax_m, em(), sliced);
  for (std::size_t l = 0; l < count; ++l) {
    const AddOutcome ref =
        fast_add(ops[l].first, ops[l].second, n, relax_m, em());
    ASSERT_EQ(sliced[l].sum, ref.sum) << "lane " << l;
    ASSERT_EQ(sliced[l].carry_out, ref.carry_out) << "lane " << l;
    ASSERT_EQ(sliced[l].cycles, ref.cycles) << "lane " << l;
    ASSERT_EQ(sliced[l].energy_ops_pj, ref.energy_ops_pj)
        << "lane " << l;  // Bit-exact, not NEAR.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitslicedAddEquivalence,
    ::testing::Values(AddSliceCase{1, 0, 64}, AddSliceCase{4, 0, 64},
                      AddSliceCase{8, 0, 64}, AddSliceCase{8, 4, 64},
                      AddSliceCase{16, 0, 64}, AddSliceCase{16, 1, 64},
                      AddSliceCase{16, 8, 37}, AddSliceCase{31, 0, 64},
                      AddSliceCase{31, 10, 64}, AddSliceCase{32, 0, 64},
                      AddSliceCase{32, 16, 64}, AddSliceCase{32, 64, 64},
                      AddSliceCase{63, 0, 64}, AddSliceCase{63, 21, 64},
                      AddSliceCase{64, 0, 64}, AddSliceCase{64, 32, 64},
                      AddSliceCase{64, 0, 1}, AddSliceCase{64, 5, 3}),
    [](const ::testing::TestParamInfo<AddSliceCase>& info) {
      return "n" + std::to_string(info.param.n) + "m" +
             std::to_string(info.param.relax_m) + "c" +
             std::to_string(info.param.count);
    });

// ----------------------------------------- multiply slices vs word model --

struct MulSliceCase {
  unsigned n;
  unsigned mask_bits;
  unsigned relax_bits;
  std::size_t count;
};

class BitslicedMultiplyEquivalence
    : public ::testing::TestWithParam<MulSliceCase> {};

TEST_P(BitslicedMultiplyEquivalence, LanesMatchFastMultiplyExactly) {
  const auto [n, mask_bits, relax_bits, count] = GetParam();
  const ApproxConfig cfg{mask_bits, relax_bits};
  // Random pairs plus the degenerate multipliers that take the p = 0/1/2
  // shortcut paths (zero, power of two, two set bits).
  util::Xoshiro256 rng(7000 + 251 * n + 13 * mask_bits + relax_bits);
  const std::uint64_t mask = util::low_mask(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t b = rng.next() & mask;
    switch (i % 8) {
      case 1: b = 0; break;
      case 3: b = std::uint64_t{1} << (i % n); break;
      case 5: b = (std::uint64_t{1} << (i % n)) | 1; break;
      case 7: b = mask; break;
      default: break;
    }
    ops.emplace_back(rng.next() & mask, b);
  }
  std::vector<MultiplyOutcome> sliced(count);
  bitsliced_multiply_slice(ops, n, cfg, em(), sliced);
  for (std::size_t l = 0; l < count; ++l) {
    const MultiplyOutcome ref =
        fast_multiply(ops[l].first, ops[l].second, n, cfg, em());
    ASSERT_EQ(sliced[l].product, ref.product)
        << "lane " << l << " a=" << ops[l].first << " b=" << ops[l].second;
    ASSERT_EQ(sliced[l].cycles, ref.cycles) << "lane " << l;
    ASSERT_EQ(sliced[l].partial_count, ref.partial_count) << "lane " << l;
    ASSERT_EQ(sliced[l].tree_stages, ref.tree_stages) << "lane " << l;
    ASSERT_EQ(sliced[l].energy_ops_pj, ref.energy_ops_pj)
        << "lane " << l;  // Bit-exact, not NEAR.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitslicedMultiplyEquivalence,
    ::testing::Values(MulSliceCase{1, 0, 0, 64}, MulSliceCase{4, 0, 0, 64},
                      MulSliceCase{8, 0, 0, 64}, MulSliceCase{8, 2, 0, 64},
                      MulSliceCase{8, 0, 6, 64}, MulSliceCase{8, 3, 10, 64},
                      MulSliceCase{16, 0, 0, 64},
                      MulSliceCase{16, 4, 16, 64},
                      MulSliceCase{31, 0, 0, 64},
                      MulSliceCase{31, 7, 20, 64},
                      MulSliceCase{32, 0, 0, 64},
                      MulSliceCase{32, 8, 0, 64},
                      MulSliceCase{32, 0, 32, 64},
                      MulSliceCase{32, 16, 48, 64},
                      MulSliceCase{32, 0, 0, 5}),
    [](const ::testing::TestParamInfo<MulSliceCase>& info) {
      return "n" + std::to_string(info.param.n) + "mask" +
             std::to_string(info.param.mask_bits) + "relax" +
             std::to_string(info.param.relax_bits) + "c" +
             std::to_string(info.param.count);
    });

// ------------------------------------------------ three-way gate (adds) ---

struct ThreeWayAddCase {
  unsigned n;
  unsigned relax_m;
};

class ThreeWayAddGate : public ::testing::TestWithParam<ThreeWayAddCase> {};

TEST_P(ThreeWayAddGate, EngineWordAndBitslicedAgree) {
  const auto [n, relax_m] = GetParam();
  const std::size_t count = 16;
  const auto ops = carry_heavy_pairs(count, n, 8000 + 7 * n + relax_m);
  std::vector<AddOutcome> sliced(count);
  bitsliced_add_slice(ops, n, relax_m, em(), sliced);
  const unsigned m = profitable_add_relax(n, relax_m);
  for (std::size_t l = 0; l < count; ++l) {
    const auto [a, b] = ops[l];
    const InMemoryResult engine =
        m > 0 ? inmemory_relaxed_add(a, b, n, m, em())
              : inmemory_serial_add(a, b, n, em());
    const AddOutcome word = fast_add(a, b, n, relax_m, em());
    // Engine vs word: values/cycles exact, energy to summation tolerance.
    ASSERT_EQ(word.sum, engine.value) << "n=" << n << " lane " << l;
    ASSERT_EQ(word.carry_out, engine.carry_out) << "n=" << n << " lane " << l;
    ASSERT_EQ(word.cycles, engine.cycles);
    ASSERT_NEAR(word.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj);
    // Word vs bitsliced: everything exact.
    ASSERT_EQ(sliced[l].sum, word.sum);
    ASSERT_EQ(sliced[l].carry_out, word.carry_out);
    ASSERT_EQ(sliced[l].cycles, word.cycles);
    ASSERT_EQ(sliced[l].energy_ops_pj, word.energy_ops_pj);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThreeWayAddGate,
    ::testing::Values(ThreeWayAddCase{1, 0}, ThreeWayAddCase{4, 0},
                      ThreeWayAddCase{8, 0}, ThreeWayAddCase{8, 4},
                      ThreeWayAddCase{16, 0}, ThreeWayAddCase{16, 8},
                      ThreeWayAddCase{31, 0}, ThreeWayAddCase{32, 0},
                      ThreeWayAddCase{32, 12}, ThreeWayAddCase{63, 0},
                      ThreeWayAddCase{63, 15}, ThreeWayAddCase{64, 0},
                      ThreeWayAddCase{64, 20}),
    [](const ::testing::TestParamInfo<ThreeWayAddCase>& info) {
      return "n" + std::to_string(info.param.n) + "m" +
             std::to_string(info.param.relax_m);
    });

// ------------------------------------------- three-way gate (multiplies) --

TEST(ThreeWayMultiplyGate, EngineWordAndBitslicedAgree) {
  const struct {
    unsigned n, mask_bits, relax_bits;
  } cases[] = {{4, 0, 0}, {8, 0, 0}, {8, 2, 6}, {16, 0, 0}, {16, 4, 12}};
  for (const auto& c : cases) {
    const ApproxConfig cfg{c.mask_bits, c.relax_bits};
    const std::size_t count = 8;
    util::Xoshiro256 rng(9000 + 31 * c.n + c.relax_bits);
    const std::uint64_t mask = util::low_mask(c.n);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
    for (std::size_t i = 0; i < count; ++i)
      ops.emplace_back(rng.next() & mask, rng.next() & mask);
    std::vector<MultiplyOutcome> sliced(count);
    bitsliced_multiply_slice(ops, c.n, cfg, em(), sliced);
    for (std::size_t l = 0; l < count; ++l) {
      const auto [a, b] = ops[l];
      const InMemoryResult engine = inmemory_multiply(a, b, c.n, cfg, em());
      const MultiplyOutcome word = fast_multiply(a, b, c.n, cfg, em());
      ASSERT_EQ(word.product, engine.value) << "n=" << c.n << " lane " << l;
      ASSERT_EQ(word.cycles, engine.cycles);
      ASSERT_NEAR(word.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj);
      ASSERT_EQ(sliced[l].product, word.product);
      ASSERT_EQ(sliced[l].cycles, word.cycles);
      ASSERT_EQ(sliced[l].energy_ops_pj, word.energy_ops_pj);
    }
  }
}

// ------------------------------------------- carry-out boundary contract --

TEST(CarryOutBoundary, Width63KeepsCarryInBandAndOutOfBand) {
  // 63-bit all-ones + all-ones: sum overflows into bit 63.
  const std::uint64_t a = util::low_mask(63), b = util::low_mask(63);
  const WordUnitResult word = word_serial_add(a, b, 63, em());
  const InMemoryResult engine = inmemory_serial_add(a, b, 63, em());
  const AddOutcome fast = fast_add(a, b, 63, 0, em());
  const std::uint64_t expect = (a + b) & ~(std::uint64_t{1} << 63);
  // (n+1)-bit in-band result: bit 63 IS the carry...
  EXPECT_EQ(word.value, (a + b));
  EXPECT_EQ(engine.value, word.value);
  EXPECT_EQ(fast.sum, word.value);
  // ...and the out-of-band copy agrees at every level.
  EXPECT_TRUE(word.carry_out);
  EXPECT_TRUE(engine.carry_out);
  EXPECT_TRUE(fast.carry_out);
  EXPECT_EQ(word.value & util::low_mask(63), expect & util::low_mask(63));
}

TEST(CarryOutBoundary, Width64ReportsCarryOutOfBandOnly) {
  const std::uint64_t a = ~std::uint64_t{0};
  const std::uint64_t cases_b[] = {1, ~std::uint64_t{0}, 0x8000000000000000u};
  for (const std::uint64_t b : cases_b) {
    const WordUnitResult word = word_serial_add(a, b, 64, em());
    const InMemoryResult engine = inmemory_serial_add(a, b, 64, em());
    const AddOutcome fast = fast_add(a, b, 64, 0, em());
    const std::uint64_t truncated = a + b;  // Wraps mod 2^64.
    EXPECT_EQ(word.value, truncated) << "b=" << b;
    EXPECT_EQ(engine.value, truncated) << "b=" << b;
    EXPECT_EQ(fast.sum, truncated) << "b=" << b;
    EXPECT_TRUE(word.carry_out) << "b=" << b;
    EXPECT_TRUE(engine.carry_out) << "b=" << b;
    EXPECT_TRUE(fast.carry_out) << "b=" << b;
  }
  // No carry: out-of-band flag stays clear.
  const WordUnitResult quiet = word_serial_add(5, 7, 64, em());
  EXPECT_EQ(quiet.value, 12u);
  EXPECT_FALSE(quiet.carry_out);
}

TEST(CarryOutBoundary, Width64RelaxedAdderCarryIsExact) {
  // Relaxation perturbs low sum bits only; the carry chain is exact, so
  // carry_out must be exact even with m > 0 (word_models.hpp contract).
  const std::uint64_t a = ~std::uint64_t{0}, b = ~std::uint64_t{0};
  for (const unsigned m : {1u, 8u, 32u}) {
    const WordUnitResult word = word_final_add(a, b, 64, m, em());
    const InMemoryResult engine = inmemory_relaxed_add(a, b, 64, m, em());
    EXPECT_TRUE(word.carry_out) << "m=" << m;
    EXPECT_TRUE(engine.carry_out) << "m=" << m;
    EXPECT_EQ(word.value, engine.value) << "m=" << m;
    EXPECT_EQ(word.cycles, engine.cycles) << "m=" << m;
    EXPECT_NEAR(word.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj);
  }
}

// ------------------------------------------- served executor batches ------

using OpPair = std::pair<std::uint64_t, std::uint64_t>;

std::vector<OpPair> random_ops(std::size_t count, unsigned n,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<OpPair> ops;
  for (std::size_t i = 0; i < count; ++i)
    ops.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));
  return ops;
}

/// `ops` as one single-member dispatch of shape (op, n, approx) on an
/// 8-lane stream, through the served executor on host tier `backend`.
serve::BatchExecution execute(const std::vector<OpPair>& ops,
                              serve::OpKind op, unsigned n,
                              ApproxConfig approx, core::Backend backend) {
  core::ApimConfig base;
  base.approx.mask_bits = approx.mask_bits;  // The key carries the relax.
  base.backend = backend;
  serve::BatchKey key;
  key.op = op;
  key.width = n;
  key.relax_bits = approx.relax_bits;
  const std::span<const OpPair> member(ops);
  return serve::execute_batch(std::span(&member, 1), key, /*lanes=*/8, base);
}

void expect_same_execution(const serve::BatchExecution& got,
                           const serve::BatchExecution& ref) {
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.total_lane_cycles, ref.total_lane_cycles);
  EXPECT_EQ(got.lanes_used, ref.lanes_used);
  EXPECT_EQ(got.energy_pj, ref.energy_pj);  // Bit-exact.
  EXPECT_EQ(got.stats, ref.stats);
}

TEST(ExecutorBackends, MultiplyBatchMatchesAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const unsigned n = 16;
  const ApproxConfig cfg{2, 6};
  // 300 ops: four 64-op executor chunks and a ragged 44-op tail.
  const auto ops = random_ops(300, n, 321);
  util::set_thread_count(1);
  const serve::BatchExecution ref =
      execute(ops, serve::OpKind::kMultiply, n, cfg, core::Backend::kFast);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::set_thread_count(threads);
    expect_same_execution(execute(ops, serve::OpKind::kMultiply, n, cfg,
                                  core::Backend::kBitsliced),
                          ref);
  }
}

TEST(ExecutorBackends, VectorAddMatchesAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const unsigned n = 32;
  // 517 ops: eight 64-op executor chunks and a ragged 5-op tail.
  const auto ops = random_ops(517, n, 654);
  util::set_thread_count(1);
  const serve::BatchExecution ref =
      execute(ops, serve::OpKind::kVectorAdd, n, ApproxConfig::exact(),
              core::Backend::kFast);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::set_thread_count(threads);
    expect_same_execution(execute(ops, serve::OpKind::kVectorAdd, n,
                                  ApproxConfig::exact(),
                                  core::Backend::kBitsliced),
                          ref);
  }
}

// ----------------------------------------------------- degenerate shapes --

TEST(BitslicedDegenerate, EmptyBatchReturnsZeroedOutcome) {
  for (const serve::OpKind op :
       {serve::OpKind::kMultiply, serve::OpKind::kVectorAdd}) {
    const serve::BatchExecution out =
        execute({}, op, 16, ApproxConfig::exact(), core::Backend::kBitsliced);
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_TRUE(out.values[0].empty());
    EXPECT_EQ(out.makespan, 0u);
    EXPECT_EQ(out.total_lane_cycles, 0u);
    EXPECT_EQ(out.energy_pj, 0.0);
    EXPECT_EQ(out.lanes_used, 0u);
    EXPECT_EQ(out.stats, core::ExecStats{});
  }
}

TEST(BitslicedDegenerate, SingleOpAndRaggedTailMatchWordBackend) {
  const unsigned n = 16;
  const ApproxConfig cfg{0, 4};
  // 1 op, then 64 + 1, then a 64*2 + 63 tail: every slice-fill shape.
  for (const std::size_t count : {1u, 65u, 191u}) {
    SCOPED_TRACE(std::to_string(count) + " ops");
    const auto ops = random_ops(count, n, 777 + count);
    expect_same_execution(
        execute(ops, serve::OpKind::kMultiply, n, cfg,
                core::Backend::kBitsliced),
        execute(ops, serve::OpKind::kMultiply, n, cfg, core::Backend::kFast));
  }
}

// ------------------------------------------------- device batch entries ---

constexpr core::Backend kBackends[] = {
    core::Backend::kFast, core::Backend::kBitsliced, core::Backend::kBitLevel};

core::ApimConfig device_config(core::Backend backend) {
  core::ApimConfig cfg;
  cfg.word_bits = 16;
  cfg.approx = ApproxConfig{1, 6};
  cfg.backend = backend;
  return cfg;
}

/// One op kind's batch entry point and its scalar twin.
struct DeviceKind {
  const char* name;
  void (core::ApimDevice::*batch)(std::span<const OpPair>,
                                  std::span<std::uint64_t>,
                                  std::span<util::Cycles>);
  std::uint64_t (*scalar)(core::ApimDevice&, std::uint64_t, std::uint64_t);
};

const DeviceKind kDeviceKinds[] = {
    {"mul", &core::ApimDevice::mul_magnitude_batch,
     [](core::ApimDevice& d, std::uint64_t a, std::uint64_t b) {
       return d.mul_magnitude(a, b);
     }},
    {"add", &core::ApimDevice::add_magnitude_batch,
     [](core::ApimDevice& d, std::uint64_t a, std::uint64_t b) {
       return d.add_magnitude(a, b);
     }},
    {"cmp", &core::ApimDevice::cmp_magnitude_batch,
     [](core::ApimDevice& d, std::uint64_t a, std::uint64_t b) {
       return d.cmp_magnitude(a, b);
     }},
    {"popcnt", &core::ApimDevice::popcnt_magnitude_batch,
     [](core::ApimDevice& d, std::uint64_t a, std::uint64_t) {
       return d.popcnt_magnitude(a);
     }},
};

TEST(DeviceOps, BatchEntryPointsMatchScalar) {
  // Every batch entry point must replay the scalar loop exactly: values,
  // per-op cycles and the whole ExecStats (op indices, fault draws,
  // residue checks, votes and retry ladders included), for every op kind,
  // backend, reliability policy and approximation level, with a fault
  // table that bites: stuck multiplier and adder bits plus transients.
  using reliability::ReliabilityPolicy;
  reliability::LaneFaultTable faults(4, 3);
  faults.add_mul_stuck(0, 0, 7, true);
  faults.add_add_stuck(2, 0, 3, true);
  faults.set_transient(0.05, 17);
  for (const DeviceKind& kind : kDeviceKinds) {
    std::uint64_t detected = 0;
    for (const core::Backend backend : kBackends) {
      // Several 64-op slices and a ragged tail; a few ops on the engine.
      const auto ops =
          random_ops(backend == core::Backend::kBitLevel ? 5 : 150, 16, 4242);
      for (const ReliabilityPolicy policy :
           {ReliabilityPolicy::kOff, ReliabilityPolicy::kDetectAndRepair,
            ReliabilityPolicy::kTripleVote}) {
        for (const ApproxConfig approx : {ApproxConfig::exact(),
                                          ApproxConfig{1, 6}}) {
          SCOPED_TRACE(std::string(kind.name) + " backend " +
                       std::to_string(static_cast<int>(backend)) +
                       " policy " + std::to_string(static_cast<int>(policy)) +
                       " relax " + std::to_string(approx.relax_bits));
          core::ApimConfig cfg = device_config(backend);
          cfg.approx = approx;
          cfg.reliability.policy = policy;
          cfg.reliability.faults = faults;

          core::ApimDevice scalar{cfg};
          std::vector<std::uint64_t> ref_vals;
          std::vector<util::Cycles> ref_cycles;
          for (const auto& [a, b] : ops) {
            const util::Cycles before = scalar.stats().cycles;
            ref_vals.push_back(kind.scalar(scalar, a, b));
            ref_cycles.push_back(scalar.stats().cycles - before);
          }

          core::ApimDevice batched{cfg};
          std::vector<std::uint64_t> vals(ops.size());
          std::vector<util::Cycles> cycles(ops.size());
          (batched.*kind.batch)(ops, vals, cycles);
          EXPECT_EQ(vals, ref_vals);
          EXPECT_EQ(cycles, ref_cycles);
          EXPECT_EQ(batched.stats(), scalar.stats());
          if (policy != ReliabilityPolicy::kOff)
            detected += scalar.stats().faults_detected;
        }
      }
    }
    EXPECT_GT(detected, 0u) << kind.name << ": the fault table never bit";
  }
}

// The three cases below cross backends: a kBitsliced batch must replay a
// kFast device's scalar loop, not just its own.

TEST(DeviceBatch, BitslicedBatchEqualsScalarLoopOnFastDevice) {
  const auto ops = random_ops(130, 16, 4242);
  std::vector<std::uint64_t> ref_vals(ops.size());
  std::vector<util::Cycles> ref_cycles(ops.size());
  core::ApimDevice scalar{device_config(core::Backend::kFast)};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::Cycles before = scalar.stats().cycles;
    ref_vals[i] = scalar.mul_magnitude(ops[i].first, ops[i].second);
    ref_cycles[i] = scalar.stats().cycles - before;
  }

  core::ApimDevice sliced{device_config(core::Backend::kBitsliced)};
  std::vector<std::uint64_t> vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  sliced.mul_magnitude_batch(ops, vals, cycles);
  EXPECT_EQ(vals, ref_vals);
  EXPECT_EQ(cycles, ref_cycles);
  EXPECT_EQ(sliced.stats(), scalar.stats());
}

TEST(DeviceBatch, AddBatchEqualsScalarLoopOnFastDevice) {
  const auto ops = random_ops(100, 16, 4242);
  std::vector<std::uint64_t> ref_vals(ops.size());
  core::ApimDevice scalar{device_config(core::Backend::kFast)};
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_vals[i] = scalar.add_magnitude(ops[i].first, ops[i].second);

  core::ApimDevice sliced{device_config(core::Backend::kBitsliced)};
  std::vector<std::uint64_t> vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  sliced.add_magnitude_batch(ops, vals, cycles);
  EXPECT_EQ(vals, ref_vals);
  EXPECT_EQ(sliced.stats(), scalar.stats());
}

TEST(DeviceBatch, ReliabilityMachineryReplaysIdenticallyUnderBitsliced) {
  // Faulty lanes + detect-and-repair: op indices, residue checks and the
  // retry ladder must replay exactly as in scalar execution, because the
  // batch path recomputes op_index per op in order.
  core::ApimConfig base = device_config(core::Backend::kFast);
  base.reliability.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  base.reliability.faults = reliability::LaneFaultTable(4, 3);
  base.reliability.faults.add_mul_stuck(0, 0, 7, true);
  base.reliability.faults.add_add_stuck(2, 0, 3, true);
  base.approx = ApproxConfig::exact();  // Residue checks need exact ops.

  const auto ops = random_ops(96, 16, 4242);
  core::ApimDevice scalar{base};
  std::vector<std::uint64_t> ref_mul(ops.size()), ref_add(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_mul[i] = scalar.mul_magnitude(ops[i].first, ops[i].second);
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_add[i] = scalar.add_magnitude(ops[i].first, ops[i].second);
  ASSERT_GT(scalar.stats().faults_detected, 0u);  // The table bites.

  base.backend = core::Backend::kBitsliced;
  core::ApimDevice sliced{base};
  std::vector<std::uint64_t> mul_vals(ops.size()), add_vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  sliced.mul_magnitude_batch(ops, mul_vals, cycles);
  sliced.add_magnitude_batch(ops, add_vals, cycles);
  EXPECT_EQ(mul_vals, ref_mul);
  EXPECT_EQ(add_vals, ref_add);
  EXPECT_EQ(sliced.stats(), scalar.stats());
}

TEST(DeviceBatch, EmptyBatchIsANoOp) {
  for (const core::Backend backend : kBackends) {
    core::ApimDevice device{device_config(backend)};
    for (const DeviceKind& kind : kDeviceKinds)
      (device.*kind.batch)({}, {}, {});
    EXPECT_EQ(device.stats(), core::ExecStats{});
  }
}

TEST(DeviceBatch, ShortOutputSpanThrowsBeforeAnyOpRuns) {
  // A short `values` or `op_cycles` span is rejected in every build type,
  // never written past.
  const auto ops = random_ops(70, 16, 99);
  std::vector<std::uint64_t> vals(ops.size()), short_vals(ops.size() - 1);
  std::vector<util::Cycles> cycles(ops.size()), short_cycles(ops.size() - 1);
  for (const core::Backend backend :
       {core::Backend::kFast, core::Backend::kBitsliced}) {
    core::ApimDevice device{device_config(backend)};
    for (const DeviceKind& kind : kDeviceKinds) {
      SCOPED_TRACE(kind.name);
      EXPECT_THROW((device.*kind.batch)(ops, short_vals, cycles),
                   std::invalid_argument);
      EXPECT_THROW((device.*kind.batch)(ops, vals, short_cycles),
                   std::invalid_argument);
    }
    EXPECT_EQ(device.stats(), core::ExecStats{});
  }
}

}  // namespace
}  // namespace apim::arith
