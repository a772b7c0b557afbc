// The central property suite: the word-level fast functional model must
// match the bit-level MAGIC engine EXACTLY — same values, same cycle
// counts, same micro-op event counts (==, class by class) — across
// randomized operands and every approximation configuration. This is what
// licenses running the paper's application workloads on the fast model
// (DESIGN.md, "two-level simulation strategy").
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/tree_plan.hpp"
#include "arith/word_models.hpp"
#include "digest.hpp"
#include "energy_counts_print.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

// ------------------------------------------------------- serial adders ----

class SerialAddEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerialAddEquivalence, FastEqualsEngine) {
  const unsigned n = GetParam();
  util::Xoshiro256 rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const WordUnitResult fast = word_serial_add(a, b, n);
    const InMemoryResult engine = inmemory_serial_add(a, b, n, em());
    ASSERT_EQ(fast.value, engine.value) << "n=" << n;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n;
    ASSERT_EQ(fast.energy, engine.energy) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SerialAddEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u, 24u,
                                           32u, 48u));

// ----------------------------------------------------------- CSA stage ----

class CsaEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(CsaEquivalence, FastEqualsEngine) {
  const unsigned width = GetParam();
  util::Xoshiro256 rng(2000 + width);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t mask = util::low_mask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const std::uint64_t c = rng.next() & mask;
    const FaWordResult fast = word_fa_stage(a, b, c, width);
    const CsaOutcome engine = inmemory_csa(a, b, c, width, em());
    ASSERT_EQ(fast.sum, engine.sum);
    ASSERT_EQ(fast.carry, engine.carry);
    // Engine CSA adds init + carry-shift interconnect around the NOR work.
    device::EnergyCounts fast_total = fast.nor;
    fast_total.init += 12 * width;
    fast_total.interconnect_bits += width;
    ASSERT_EQ(fast_total, engine.energy);
    ASSERT_EQ(engine.cycles, 13u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CsaEquivalence,
                         ::testing::Values(1u, 3u, 8u, 16u, 32u, 48u));

// ------------------------------------------------------------ tree adds ---

struct TreeCase {
  std::size_t operands;
  unsigned width;
};

class TreeAddEquivalence : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeAddEquivalence, FastEqualsEngine) {
  const auto [count, n] = GetParam();
  util::Xoshiro256 rng(3000 + 37 * count + n);
  const unsigned cap =
      n + util::bit_width(static_cast<std::uint64_t>(count) - 1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint64_t> values;
    std::vector<unsigned> widths;
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(rng.next() & util::low_mask(n));
      widths.push_back(n);
    }
    const AddOutcome fast = fast_tree_add(values, widths, cap, em());
    const InMemoryResult engine = inmemory_tree_add(values, widths, cap, em());
    ASSERT_EQ(fast.sum, engine.value) << "M=" << count << " n=" << n;
    ASSERT_EQ(fast.cycles, engine.cycles) << "M=" << count << " n=" << n;
    ASSERT_EQ(fast.energy, engine.energy) << "M=" << count << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeAddEquivalence,
    ::testing::Values(TreeCase{2, 16}, TreeCase{3, 8}, TreeCase{4, 8},
                      TreeCase{5, 12}, TreeCase{9, 16}, TreeCase{16, 8},
                      TreeCase{27, 8}, TreeCase{32, 16}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return "M" + std::to_string(info.param.operands) + "n" +
             std::to_string(info.param.width);
    });

// The allocation-free tree the fast units run is the planned tree,
// evaluated in place: same survivors, widths, stages, cycles and counts.
// Its values-only instantiation leaves the same survivors at zero cost.
TEST(TreeReduceInPlace, EqualsPlannedReduction) {
  util::Xoshiro256 rng(3500);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t count = 1 + rng.next_below(70);
    const unsigned cap = 8 + static_cast<unsigned>(rng.next_below(57));
    std::vector<std::uint64_t> values(count);
    std::vector<unsigned> widths(count);
    for (std::size_t i = 0; i < count; ++i) {
      widths[i] = 1 + static_cast<unsigned>(rng.next_below(cap));
      values[i] = rng.next() & util::low_mask(widths[i]);
    }
    const TreePlan plan = plan_tree_reduction(widths, cap, 1, 2);
    const TreeReduceResult planned = word_tree_reduce(values, plan);
    std::vector<std::uint64_t> value = values;
    std::vector<unsigned> width = widths;
    std::vector<unsigned char> block(count);
    const TreeReduceResult in_place = word_tree_reduce_in_place(
        value.data(), width.data(), block.data(), count, cap);
    ASSERT_EQ(in_place.x, planned.x) << "M=" << count;
    ASSERT_EQ(in_place.y, planned.y) << "M=" << count;
    ASSERT_EQ(in_place.x_width, planned.x_width) << "M=" << count;
    ASSERT_EQ(in_place.y_width, planned.y_width) << "M=" << count;
    ASSERT_EQ(in_place.stages, planned.stages) << "M=" << count;
    ASSERT_EQ(in_place.cycles, planned.cycles) << "M=" << count;
    ASSERT_EQ(in_place.energy, planned.energy) << "M=" << count;

    value = values;
    width = widths;
    const TreeReduceResult values_only = word_tree_reduce_in_place<false>(
        value.data(), width.data(), nullptr, count, cap);
    ASSERT_EQ(values_only.x, planned.x) << "M=" << count;
    ASSERT_EQ(values_only.y, planned.y) << "M=" << count;
    ASSERT_EQ(values_only.x_width, planned.x_width) << "M=" << count;
    ASSERT_EQ(values_only.y_width, planned.y_width) << "M=" << count;
    ASSERT_EQ(values_only.stages, planned.stages) << "M=" << count;
    ASSERT_EQ(values_only.cycles, 0u) << "M=" << count;
    ASSERT_EQ(values_only.energy, device::EnergyCounts{}) << "M=" << count;
  }
}

// -------------------------------------------------------- relaxed adds ----

class RelaxedAddEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(RelaxedAddEquivalence, FastEqualsEngine) {
  const auto [n, m] = GetParam();
  util::Xoshiro256 rng(4000 + 13 * n + m);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const WordUnitResult fast = word_final_add(a, b, n, m);
    const InMemoryResult engine = inmemory_relaxed_add(a, b, n, m, em());
    ASSERT_EQ(fast.value, engine.value) << "n=" << n << " m=" << m;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n << " m=" << m;
    ASSERT_EQ(fast.energy, engine.energy) << "n=" << n << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RelaxedAddEquivalence,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(0u, 1u, 4u, 8u, 16u, 32u, 64u)));

// ---------------------------------------------------------- multipliers ---

struct MultCase {
  unsigned n;
  unsigned mask_bits;
  unsigned relax_bits;
};

class MultiplyEquivalence : public ::testing::TestWithParam<MultCase> {};

TEST_P(MultiplyEquivalence, FastEqualsEngine) {
  const MultCase c = GetParam();
  const ApproxConfig cfg{c.mask_bits, c.relax_bits};
  util::Xoshiro256 rng(5000 + 97 * c.n + 7 * c.mask_bits + c.relax_bits);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(c.n);
    const std::uint64_t b = rng.next() & util::low_mask(c.n);
    const MultiplyOutcome fast = fast_multiply(a, b, c.n, cfg, em());
    const InMemoryResult engine = inmemory_multiply(a, b, c.n, cfg, em());
    ASSERT_EQ(fast.product, engine.value)
        << "n=" << c.n << " a=" << a << " b=" << b;
    ASSERT_EQ(fast.cycles, engine.cycles)
        << "n=" << c.n << " a=" << a << " b=" << b;
    ASSERT_EQ(fast.energy, engine.energy)
        << "n=" << c.n << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MultiplyEquivalence,
    ::testing::Values(MultCase{4, 0, 0}, MultCase{8, 0, 0},
                      MultCase{8, 2, 0}, MultCase{8, 0, 6},
                      MultCase{8, 3, 10}, MultCase{12, 0, 0},
                      MultCase{16, 0, 0}, MultCase{16, 4, 0},
                      MultCase{16, 0, 16}, MultCase{16, 8, 24},
                      MultCase{24, 0, 12}, MultCase{32, 0, 0},
                      MultCase{32, 8, 0}, MultCase{32, 0, 32},
                      MultCase{32, 16, 48}),
    [](const ::testing::TestParamInfo<MultCase>& info) {
      return "n" + std::to_string(info.param.n) + "mask" +
             std::to_string(info.param.mask_bits) + "relax" +
             std::to_string(info.param.relax_bits);
    });

// Degenerate operand sweep: zero / one / all-ones multipliers exercise the
// p = 0 / 1 / 2 shortcut paths on both levels.
TEST(MultiplyEquivalenceEdge, DegenerateOperands) {
  const unsigned n = 8;
  const std::uint64_t cases[][2] = {
      {0, 0},    {0xFF, 0}, {0, 0xFF},   {1, 1},
      {0xFF, 1}, {1, 0xFF}, {0xFF, 0x81}, {0x80, 0x80},
  };
  for (const auto& c : cases) {
    const MultiplyOutcome fast =
        fast_multiply(c[0], c[1], n, ApproxConfig::exact(), em());
    const InMemoryResult engine =
        inmemory_multiply(c[0], c[1], n, ApproxConfig::exact(), em());
    EXPECT_EQ(fast.product, engine.value) << c[0] << "*" << c[1];
    EXPECT_EQ(fast.cycles, engine.cycles) << c[0] << "*" << c[1];
    EXPECT_EQ(fast.energy, engine.energy);
  }
}

// ------------------------------------------------ pinned word-model digests
//
// The engine comparisons above hold the word models to the engine, and
// the bitsliced gate compares the slice kernels against these same word
// models, so neither pins the word models on its own. These digests do:
// one FNV-1a hash per unit and configuration over every output field
// (energy priced from its counts, by its bit pattern) of kDigestTrials
// seeded operand draws. A refactor of the word models must reproduce them
// exactly; a deliberate change to a model's accounting regenerates them
// (the failure message prints the new value).
//
// They price every op with digest::kDigestEnergy (tests/digest.hpp), whose
// constants are integer literals, so the digests pin neither the C
// library nor the order in which an energy's terms are summed.

constexpr int kDigestTrials = 2000;

using digest::Fnv1a;
using digest::kDigestEnergy;

/// Operand draw for trial t: dense, sparse and very sparse words in turn,
/// so multipliers hit the 0 / 1 / 2 partial-product shortcuts too.
std::uint64_t draw(util::Xoshiro256& rng, int t, unsigned n) {
  const std::uint64_t mask = util::low_mask(n);
  switch (t % 4) {
    case 1: return rng.next() & rng.next() & rng.next() & mask;
    case 2: return (std::uint64_t{1} << rng.next_below(n)) & mask;
    default: return rng.next() & mask;
  }
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llXull",
                static_cast<unsigned long long>(v));
  return buf;
}

struct MulDigest {
  unsigned n;
  ApproxConfig cfg;
  std::uint64_t digest;
};

TEST(WordModelDigest, FastMultiply) {
  // n x {exact, relax 8, relax 2n, mask 3}; at n = 4, relax 2n is relax 8.
  const MulDigest cases[] = {
      {4, {0, 0}, 0xBC5E347888AAFC0Bull},
      {4, {0, 8}, 0x9385080CBAB532A0ull},
      {4, {3, 0}, 0xE834EB68E1306F3Dull},
      {8, {0, 0}, 0x47AD8C7A0592FF38ull},
      {8, {0, 8}, 0x75372413B5F46A5Cull},
      {8, {0, 16}, 0x4888DAA0AEF5019Cull},
      {8, {3, 0}, 0x7BDC0A36EBF0A673ull},
      {16, {0, 0}, 0xE6AB7F9879F4339Dull},
      {16, {0, 8}, 0xA1BF1858A21A1166ull},
      {16, {0, 32}, 0x2EFB8718660231E6ull},
      {16, {3, 0}, 0x0FEF75D560AB4B24ull},
      {24, {0, 0}, 0x9C81DE25E79D1A00ull},
      {24, {0, 8}, 0x78C15466A60E5525ull},
      {24, {0, 48}, 0x21D8C6CC79DC7FB6ull},
      {24, {3, 0}, 0xEBF166CB3E309356ull},
      {32, {0, 0}, 0xFE841EBDAC1EBCD3ull},
      {32, {0, 8}, 0x16490FBA762F69EAull},
      {32, {0, 64}, 0x3FFA113DA6ADC55Dull},
      {32, {3, 0}, 0x48D08CA1A781E39Cull},
  };
  for (const MulDigest& c : cases) {
    util::Xoshiro256 rng(6000 + 97 * c.n + 7 * c.cfg.mask_bits +
                         c.cfg.relax_bits);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      const std::uint64_t a = draw(rng, t + 1, c.n);
      const std::uint64_t b = draw(rng, t, c.n);
      const MultiplyOutcome r = fast_multiply(a, b, c.n, c.cfg, kDigestEnergy);
      h.mix(r.product);
      h.mix(r.cycles);
      h.mix(kDigestEnergy.energy_pj(r.energy));
      h.mix(r.partial_count);
      h.mix(r.tree_stages);
    }
    EXPECT_EQ(h.value(), c.digest)
        << "n=" << c.n << " mask=" << c.cfg.mask_bits
        << " relax=" << c.cfg.relax_bits << " digest=" << hex(h.value());
  }
}

/// (n, relax) digests for the two-operand adders. The relax values sit on
/// both sides of profitable_add_relax's switch (m > n / 11 is profitable).
struct AddDigest {
  unsigned n;
  unsigned relax;
  std::uint64_t digest;
};

template <class Unit>
void check_add_digests(std::span<const AddDigest> cases, std::uint64_t seed,
                       Unit unit) {
  for (const AddDigest& c : cases) {
    util::Xoshiro256 rng(seed + 131 * c.n + c.relax);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      const std::uint64_t a = draw(rng, t, c.n);
      const std::uint64_t b = draw(rng, t + 2, c.n);
      unit(h, a, b, c.n, c.relax);
    }
    EXPECT_EQ(h.value(), c.digest) << "n=" << c.n << " relax=" << c.relax
                                   << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastAdd) {
  const AddDigest cases[] = {
      {1, 0, 0xDCC7089E4265CFF5ull},
      {1, 1, 0x7EA5C4632D807954ull},
      {8, 0, 0x855E56E9C64CE44Aull},
      {8, 1, 0x20C7E43A9EE8EDBFull},
      {8, 4, 0x663133FFBFAF247Full},
      {16, 0, 0xB61023835D482416ull},
      {16, 1, 0xE31AAE57A301860Aull},
      {16, 2, 0xBF25B3C72C2FE09Cull},
      {16, 16, 0xA2C2BDD37156B341ull},
      {32, 0, 0x469692011A3080F4ull},
      {32, 2, 0xC8DEAF12EB530598ull},
      {32, 3, 0x7D34D03A49992F98ull},
      {32, 16, 0x4B379E85D961CC5Eull},
      {32, 40, 0x5CBF3CFB9AC86CF2ull},
      {63, 5, 0xCAF19B84A7285E79ull},
      {63, 6, 0x5EBE2D0C1121D3A9ull},
      {64, 0, 0x3A81FC18EA74331Cull},
      {64, 5, 0xFE3C5F3523762A74ull},
      {64, 6, 0x40551E6CE1CC496Cull},
      {64, 64, 0xF924E9673D0F51AFull},
  };
  check_add_digests(cases, 7000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned m) {
                      const AddOutcome r = fast_add(a, b, n, m, kDigestEnergy);
                      h.mix(r.sum);
                      h.mix(r.cycles);
                      h.mix(kDigestEnergy.energy_pj(r.energy));
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordSerialAdd) {
  const AddDigest cases[] = {
      {1, 0, 0x40543770F3B43EE2ull},
      {7, 0, 0x8289B4DF868E4E53ull},
      {16, 0, 0x0444D83B0D3747B8ull},
      {32, 0, 0x1260F1481A493AC1ull},
      {48, 0, 0x1FFDD4361042F3C9ull},
      {63, 0, 0xE955AF6C6822D59Dull},
      {64, 0, 0x3A2E440ED2987F9Eull},
  };
  check_add_digests(cases, 8000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned) {
                      const WordUnitResult r = word_serial_add(a, b, n);
                      h.mix(r.value);
                      h.mix(r.cycles);
                      h.mix(kDigestEnergy.energy_pj(r.energy));
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordFinalAdd) {
  const AddDigest cases[] = {
      {1, 0, 0x57A891ADF103EF95ull},
      {1, 1, 0x418262FFCD5DDEC5ull},
      {8, 0, 0x7FC04F53AAC02CDEull},
      {8, 1, 0xCC175DB9F557B24Bull},
      {8, 4, 0x897DEDBA71F8A6DEull},
      {16, 0, 0x9606B87B06DC800Eull},
      {16, 1, 0x1AA21AEE0A24165Dull},
      {16, 2, 0x1987CCAEE459A067ull},
      {16, 16, 0xCA535B8A92037EA3ull},
      {32, 0, 0xC2570E41DF1BE6B4ull},
      {32, 2, 0x8FB660E7DD924E20ull},
      {32, 3, 0x2425981808E7B724ull},
      {32, 16, 0x0251760BA2E2E2F8ull},
      {32, 40, 0xA9695554609714AAull},
      {63, 5, 0xECD305B7BEBC3460ull},
      {63, 6, 0x9FCB013C001CEA73ull},
      {64, 0, 0x9DBCE03E656B3D66ull},
      {64, 5, 0x832FF935426C305Aull},
      {64, 6, 0xF9394644DEDB2D56ull},
      {64, 64, 0xCA71DAAE016DDBB6ull},
  };
  check_add_digests(cases, 9000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned m) {
                      const WordUnitResult r = word_final_add(a, b, n, m);
                      h.mix(r.value);
                      h.mix(r.cycles);
                      h.mix(kDigestEnergy.energy_pj(r.energy));
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordFaStage) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x1FA8CDA27DC2F6B2ull},
      {3, 0x2F6021260C33D336ull},
      {8, 0x232096DD79604F68ull},
      {16, 0xF5DEC969F73637DBull},
      {32, 0x401A37E0284D5C11ull},
      {48, 0x2752D5B3F4D05489ull},
      {64, 0x02658B68555707DEull},
  };
  for (const auto& [width, digest] : cases) {
    util::Xoshiro256 rng(10000 + width);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      // Drawn last operand first: the order the digests were pinned in.
      const std::uint64_t c = draw(rng, t + 3, width);
      const std::uint64_t b = draw(rng, t + 1, width);
      const std::uint64_t a = draw(rng, t, width);
      const FaWordResult r = word_fa_stage(a, b, c, width);
      h.mix(r.sum);
      h.mix(r.carry);
      h.mix(kDigestEnergy.energy_pj(r.nor));
    }
    EXPECT_EQ(h.value(), digest)
        << "width=" << width << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastTreeAdd) {
  // (operands, operand width; 0 = mixed widths 1..24), digest. 64 1-bit
  // operands is the widest popcount; 100 operands exceed it.
  struct TreeDigest {
    std::size_t count;
    unsigned n;
    std::uint64_t digest;
  };
  const TreeDigest cases[] = {
      {1, 16, 0xFB319E2EB820AA8Cull},
      {2, 16, 0x7A4F47D25A57BD1Dull},
      {3, 8, 0xFCAC96911DAD07F6ull},
      {4, 8, 0xAB0899DED4DF2B2Eull},
      {9, 16, 0x88AF31A88ABEEB02ull},
      {12, 0, 0x585BBD82EFFBA9C2ull},
      {32, 16, 0x317392C3C6EDD987ull},
      {64, 1, 0x2E9445C8A732C952ull},
      {100, 16, 0x5309A16F11CDD86Full},
  };
  for (const TreeDigest& c : cases) {
    util::Xoshiro256 rng(11000 + 37 * c.count + c.n);
    const unsigned max_n = c.n == 0 ? 24 : c.n;
    const unsigned cap =
        max_n + util::bit_width(static_cast<std::uint64_t>(c.count) - 1);
    std::vector<std::uint64_t> values(c.count);
    std::vector<unsigned> widths(c.count);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      for (std::size_t i = 0; i < c.count; ++i) {
        widths[i] = c.n == 0 ? 1 + static_cast<unsigned>(rng.next_below(24))
                             : c.n;
        values[i] = draw(rng, t + static_cast<int>(i), widths[i]);
      }
      const AddOutcome r = fast_tree_add(values, widths, cap, kDigestEnergy);
      h.mix(r.sum);
      h.mix(r.cycles);
      h.mix(kDigestEnergy.energy_pj(r.energy));
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), c.digest) << "M=" << c.count << " n=" << c.n
                                   << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastCompare) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x87DDB3D37921A81Full},
      {8, 0xCB8D639E922C53E5ull},
      {16, 0x32992901C259ECF3ull},
      {32, 0xDCB4992C98E97294ull},
      {64, 0x309E936A7015103Dull},
  };
  for (const auto& [n, digest] : cases) {
    util::Xoshiro256 rng(12000 + n);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      const std::uint64_t a = draw(rng, t, n);
      // Every eighth pair compares equal.
      const std::uint64_t b = t % 8 == 5 ? a : draw(rng, t + 1, n);
      const CompareOutcome r = fast_compare(a, b, n, kDigestEnergy);
      h.mix(r.code);
      h.mix(r.sum);
      h.mix(r.cycles);
      h.mix(kDigestEnergy.energy_pj(r.energy));
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), digest) << "n=" << n << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastPopcount) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x905F7B38129268A4ull},
      {4, 0x0EAEC39A0C166DCFull},
      {8, 0x4B8C79CB0E4976CCull},
      {16, 0xEC53F58743719E98ull},
      {32, 0xC58FE213CAF4CEB4ull},
      {64, 0x701F5B9C5AB319EFull},
  };
  for (const auto& [n, digest] : cases) {
    util::Xoshiro256 rng(13000 + n);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      const AddOutcome r = fast_popcount(draw(rng, t, n), n, kDigestEnergy);
      h.mix(r.sum);
      h.mix(r.cycles);
      h.mix(kDigestEnergy.energy_pj(r.energy));
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), digest) << "n=" << n << " digest=" << hex(h.value());
  }
}

}  // namespace
}  // namespace apim::arith
