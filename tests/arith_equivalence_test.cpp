// The central property suite: the word-level fast functional model must
// match the bit-level MAGIC engine EXACTLY — same values, same cycle
// counts, same micro-op energy — across randomized operands and every
// approximation configuration. This is what licenses running the paper's
// application workloads on the fast model (DESIGN.md, "two-level
// simulation strategy").
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
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

constexpr double kEnergyTolPj = 1e-9;  // Pure summation-order tolerance.

// ------------------------------------------------------- serial adders ----

class SerialAddEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerialAddEquivalence, FastEqualsEngine) {
  const unsigned n = GetParam();
  util::Xoshiro256 rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const WordUnitResult fast = word_serial_add(a, b, n, em());
    const InMemoryResult engine = inmemory_serial_add(a, b, n, em());
    ASSERT_EQ(fast.value, engine.value) << "n=" << n;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n;
    ASSERT_NEAR(fast.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj)
        << "n=" << n;
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
    const FaWordResult fast = word_fa_stage(a, b, c, width, em());
    const CsaOutcome engine = inmemory_csa(a, b, c, width, em());
    ASSERT_EQ(fast.sum, engine.sum);
    ASSERT_EQ(fast.carry, engine.carry);
    // Engine CSA adds init + carry-shift interconnect around the NOR work.
    const double fast_total =
        fast.nor_energy_pj + 12.0 * width * em().e_init_pj +
        static_cast<double>(width) * em().e_interconnect_bit_pj;
    ASSERT_NEAR(fast_total, engine.energy_ops_pj, kEnergyTolPj);
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
    ASSERT_NEAR(fast.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj)
        << "M=" << count << " n=" << n;
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
// evaluated in place: same survivors, widths, stages, cycles and energy
// double (==, not within tolerance).
TEST(TreeReduceInPlace, EqualsPlannedReduction) {
  util::Xoshiro256 rng(3500);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t count = 1 + rng.next_below(70);
    const unsigned cap = 8 + static_cast<unsigned>(rng.next_below(57));
    std::vector<std::uint64_t> values(count);
    std::vector<unsigned> widths(count);
    std::vector<TreeAddend> addends(count);
    for (std::size_t i = 0; i < count; ++i) {
      widths[i] = 1 + static_cast<unsigned>(rng.next_below(cap));
      values[i] = rng.next() & util::low_mask(widths[i]);
      addends[i] = TreeAddend{values[i], widths[i], 1};
    }
    const TreePlan plan = plan_tree_reduction(widths, cap, 1, 2);
    const TreeReduceResult planned = word_tree_reduce(values, plan, em());
    const TreeReduceResult in_place =
        word_tree_reduce_in_place(addends, cap, em());
    ASSERT_EQ(in_place.x, planned.x) << "M=" << count;
    ASSERT_EQ(in_place.y, planned.y) << "M=" << count;
    ASSERT_EQ(in_place.x_width, planned.x_width) << "M=" << count;
    ASSERT_EQ(in_place.y_width, planned.y_width) << "M=" << count;
    ASSERT_EQ(in_place.stages, planned.stages) << "M=" << count;
    ASSERT_EQ(in_place.cycles, planned.cycles) << "M=" << count;
    ASSERT_EQ(in_place.energy_ops_pj, planned.energy_ops_pj) << "M=" << count;
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
    const WordUnitResult fast = word_final_add(a, b, n, m, em());
    const InMemoryResult engine = inmemory_relaxed_add(a, b, n, m, em());
    ASSERT_EQ(fast.value, engine.value) << "n=" << n << " m=" << m;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n << " m=" << m;
    ASSERT_NEAR(fast.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj)
        << "n=" << n << " m=" << m;
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
    ASSERT_NEAR(fast.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj)
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
    EXPECT_NEAR(fast.energy_ops_pj, engine.energy_ops_pj, kEnergyTolPj);
  }
}

// ------------------------------------------------ pinned word-model digests
//
// The engine comparisons above allow kEnergyTolPj, and the bitsliced gate
// compares the slice kernels against these same word models, so neither
// pins the word models' energy doubles on its own. These digests do: one
// FNV-1a hash per unit and configuration over every output field (energy
// by its bit pattern) of kDigestTrials seeded operand draws. A refactor of
// the word models must reproduce them exactly; a deliberate change to a
// model's accounting regenerates them (the failure message prints the new
// value).
//
// They price every op with digest::kDigestEnergy (tests/digest.hpp), whose
// constants are literals, so the digests do not pin the C library.

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
      {4, {0, 0}, 0xF08357443210583Dull},
      {4, {0, 8}, 0x6DFD01B72155CFE2ull},
      {4, {3, 0}, 0x3029E5DF23FADEA9ull},
      {8, {0, 0}, 0x0F82F380455A9BAFull},
      {8, {0, 8}, 0xE9470DA92037EBA4ull},
      {8, {0, 16}, 0xA9BB1888EB53F4BCull},
      {8, {3, 0}, 0xEA3FFDC11BCFE880ull},
      {16, {0, 0}, 0xE2E9C01871D94DD9ull},
      {16, {0, 8}, 0xA79923814512FF2Full},
      {16, {0, 32}, 0x6EC048915E3DC758ull},
      {16, {3, 0}, 0x211DD1C03617F942ull},
      {24, {0, 0}, 0x0B3931D36E29E055ull},
      {24, {0, 8}, 0x101157F9975B7DCFull},
      {24, {0, 48}, 0xDE3B1D9E0A643BCEull},
      {24, {3, 0}, 0xE9F61200B020F986ull},
      {32, {0, 0}, 0xC7756C7B20F1E618ull},
      {32, {0, 8}, 0xDED9D1593CFCD08Full},
      {32, {0, 64}, 0xCA6BC76E3406F0B0ull},
      {32, {3, 0}, 0x927D13429F2D8EF3ull},
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
      h.mix(r.energy_ops_pj);
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
      {1, 0, 0xCF1900968B1675B9ull},
      {1, 1, 0x546F8D27781A7D67ull},
      {8, 0, 0xD93D454A32EF2F99ull},
      {8, 1, 0x39839D30F6012BCAull},
      {8, 4, 0x863F663EA4E6D3B7ull},
      {16, 0, 0x583EB2388AAF25CCull},
      {16, 1, 0x68FD881FF9C1F4CEull},
      {16, 2, 0xE6B21FBFBEF01992ull},
      {16, 16, 0x961A085C538BDB2Full},
      {32, 0, 0x55154ADE1391AB3Full},
      {32, 2, 0x8D1968148CF5CAD1ull},
      {32, 3, 0x86773D25A0F28F74ull},
      {32, 16, 0xDC1084BDE71E459Cull},
      {32, 40, 0x5AABC31D1F82F755ull},
      {63, 5, 0x86B579A6566B0FA4ull},
      {63, 6, 0xFC207EE16E0CC4AEull},
      {64, 0, 0x96D84F23A8B4C777ull},
      {64, 5, 0x543F6329EFE8BA2Dull},
      {64, 6, 0xF7E2F5A33E5F6A1Eull},
      {64, 64, 0x69700D56493C383Bull},
  };
  check_add_digests(cases, 7000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned m) {
                      const AddOutcome r = fast_add(a, b, n, m, kDigestEnergy);
                      h.mix(r.sum);
                      h.mix(r.cycles);
                      h.mix(r.energy_ops_pj);
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordSerialAdd) {
  const AddDigest cases[] = {
      {1, 0, 0x39AA53E29A36659Cull},
      {7, 0, 0xB0CC86EE3C438180ull},
      {16, 0, 0xDC111EBB6BBE5F62ull},
      {32, 0, 0xDC6A4F9497D4C806ull},
      {48, 0, 0xEE0D5FA96FF3714Eull},
      {63, 0, 0xD8DA7716B5768E98ull},
      {64, 0, 0xF1AA029B552D870Bull},
  };
  check_add_digests(cases, 8000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned) {
                      const WordUnitResult r = word_serial_add(a, b, n, kDigestEnergy);
                      h.mix(r.value);
                      h.mix(r.cycles);
                      h.mix(r.energy_ops_pj);
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordFinalAdd) {
  const AddDigest cases[] = {
      {1, 0, 0xD8A655C5C9BC582Dull},
      {1, 1, 0xC55474C474156735ull},
      {8, 0, 0xABDBA13AE17FBDFCull},
      {8, 1, 0x57F78F87D638F721ull},
      {8, 4, 0xA50305BFB6F91F77ull},
      {16, 0, 0xF9E929ABD3977B94ull},
      {16, 1, 0x29D25024C45488E3ull},
      {16, 2, 0xF41DB0F5066DE75Dull},
      {16, 16, 0x83D5E52510F2AC77ull},
      {32, 0, 0x83655E2E998D63A1ull},
      {32, 2, 0x2A5646F917BD65E0ull},
      {32, 3, 0xD9458CB1DB3F34BDull},
      {32, 16, 0xB922145567FAFE57ull},
      {32, 40, 0xA75821E35BC15680ull},
      {63, 5, 0x681D4FB1CDA09C90ull},
      {63, 6, 0xBB545B9C876F7FCFull},
      {64, 0, 0x4E1EC114042A3832ull},
      {64, 5, 0x4F395507E59773AAull},
      {64, 6, 0x15EA55AF91B4C91Dull},
      {64, 64, 0xCCF3043E0B929291ull},
  };
  check_add_digests(cases, 9000,
                    [](Fnv1a& h, std::uint64_t a, std::uint64_t b, unsigned n,
                       unsigned m) {
                      const WordUnitResult r = word_final_add(a, b, n, m, kDigestEnergy);
                      h.mix(r.value);
                      h.mix(r.cycles);
                      h.mix(r.energy_ops_pj);
                      h.mix(r.carry_out);
                    });
}

TEST(WordModelDigest, WordFaStage) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x43F0913C2E1FA040ull},
      {3, 0x3099A5AFABEF49AFull},
      {8, 0x3DA42BB32E1163CEull},
      {16, 0xAEC9DEB35BE08155ull},
      {32, 0xAD3F98C76DB69291ull},
      {48, 0x5ACA858695E7E30Dull},
      {64, 0x8AB11DFFEC7C5F9Aull},
  };
  for (const auto& [width, digest] : cases) {
    util::Xoshiro256 rng(10000 + width);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      // Drawn last operand first: the order the digests were pinned in.
      const std::uint64_t c = draw(rng, t + 3, width);
      const std::uint64_t b = draw(rng, t + 1, width);
      const std::uint64_t a = draw(rng, t, width);
      const FaWordResult r = word_fa_stage(a, b, c, width, kDigestEnergy);
      h.mix(r.sum);
      h.mix(r.carry);
      h.mix(r.nor_energy_pj);
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
      {2, 16, 0x255363627904940Bull},
      {3, 8, 0x239E0137A74A5193ull},
      {4, 8, 0x574CB02A5726700Cull},
      {9, 16, 0x0332AB717586345Eull},
      {12, 0, 0xF2533472A1B5B386ull},
      {32, 16, 0xBD1FFF9509D9FABFull},
      {64, 1, 0xDC1BA35851A21195ull},
      {100, 16, 0xC8C0B978011599B6ull},
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
      h.mix(r.energy_ops_pj);
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), c.digest) << "M=" << c.count << " n=" << c.n
                                   << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastCompare) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x48234BD7CA22077Cull},
      {8, 0xB5F0353E8175CCADull},
      {16, 0x201BF032609D6134ull},
      {32, 0x0E3275CFD237A91Full},
      {64, 0xBD5D0A03DE939A53ull},
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
      h.mix(r.energy_ops_pj);
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), digest) << "n=" << n << " digest=" << hex(h.value());
  }
}

TEST(WordModelDigest, FastPopcount) {
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {1, 0x905F7B38129268A4ull},
      {4, 0xCE3BB0C08FCF411Aull},
      {8, 0xD0B8D142B417AB0Full},
      {16, 0x2EF5E15E1097DDECull},
      {32, 0x9C62657E4B3C7EC1ull},
      {64, 0xC05F5429FA788ED5ull},
  };
  for (const auto& [n, digest] : cases) {
    util::Xoshiro256 rng(13000 + n);
    Fnv1a h;
    for (int t = 0; t < kDigestTrials; ++t) {
      const AddOutcome r = fast_popcount(draw(rng, t, n), n, kDigestEnergy);
      h.mix(r.sum);
      h.mix(r.cycles);
      h.mix(r.energy_ops_pj);
      h.mix(r.carry_out);
    }
    EXPECT_EQ(h.value(), digest) << "n=" << n << " digest=" << hex(h.value());
  }
}

}  // namespace
}  // namespace apim::arith
