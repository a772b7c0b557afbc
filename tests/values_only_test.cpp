// Gates of the offline QoS tuning path (paper Section 4.1).
//
// FullModelPin pins, by FNV-1a digest (tests/digest.hpp), the tuned table
// serve::build_qos_table produces for every registered app and each app's
// full-model outputs and ExecStats at three relax settings and, on a
// device with a fixed stuck-bit table under kDetectAndRepair, once more.
// Energies are priced with the literal kDigestEnergy, so the pins do not
// depend on the C library's pow.
//
// ValuesOnly checks core::ApimDevice::values_only, the device the tuner
// runs on: every op's value equals the full model's (word model and, spot
// checked, the bit-level engine), every app's output is bit-identical at
// every relax setting, its stats stay zero, and it accepts only passive
// reliability.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "core/apim.hpp"
#include "digest.hpp"
#include "serve/qos_table.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim {
namespace {

using digest::Fnv1a;

const std::vector<std::string> kApps = {"Sobel",   "Robert", "FFT",
                                        "DwtHaar1D", "Sharpen", "QuasiR",
                                        "GEMM"};
constexpr std::size_t kSizes[] = {256, 1024};
constexpr std::uint64_t kSeed = 2017;

void mix_stats(Fnv1a& h, const core::ExecStats& s) {
  h.mix(s.multiplies);
  h.mix(s.additions);
  h.mix(s.comparisons);
  h.mix(s.popcounts);
  h.mix(s.cycles);
  h.mix(s.energy_ops_pj);
  h.mix(s.partial_products);
  h.mix(s.residue_checks);
  h.mix(s.faults_detected);
  h.mix(s.retries);
  h.mix(s.votes);
  h.mix(s.escalations);
}

TEST(FullModelPin, QosTableDigestIsPinned) {
  const std::uint64_t expected[] = {7199362229566649371ull,
                                    13467531146929533883ull};
  for (std::size_t s = 0; s < std::size(kSizes); ++s) {
    const serve::QosTable table =
        serve::build_qos_table(kApps, kSizes[s], kSeed);
    Fnv1a h;
    for (const std::string& name : kApps) {
      const serve::QosTableEntry& e = table.entries().at(name);
      h.mix(name);
      h.mix(e.relax_bits);
      h.mix(e.expected_loss);
      h.mix(e.met_qos);
    }
    EXPECT_EQ(h.value(), expected[s])
        << "elements=" << kSizes[s] << " digest=" << h.value();
  }
}

TEST(FullModelPin, AppExecStatsDigestIsPinned) {
  const std::uint64_t expected[] = {
      4356206194262554329ull, 15019641807088368160ull,
      5368366926168763083ull, 4672588658956443284ull,
      9305555556857888247ull,   12990754205609994608ull,
      6597827388208066651ull};
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    Fnv1a h;
    for (const std::size_t elements : kSizes) {
      auto app = apps::make_application(kApps[a]);
      app->generate(elements, kSeed);
      for (const unsigned relax : {0u, 16u, 32u}) {
        core::ApimConfig cfg;
        cfg.energy = digest::kDigestEnergy;
        cfg.approx.relax_bits = relax;
        core::ApimDevice device{cfg};
        for (const double v : app->run_apim(device)) h.mix(v);
        mix_stats(h, device.stats());
      }
    }
    EXPECT_EQ(h.value(), expected[a])
        << kApps[a] << " digest=" << h.value();
  }
}

// The same apps on a faulty device under the repair ladder (one lane is
// stuck on its first retry domain too, so some ops retry twice). Which op a
// stuck bit corrupts, and so where retries land, follows the op indices,
// so this pin holds each app's device-op order even where reordering two
// ops leaves the energy sum unchanged.
TEST(FullModelPin, FaultTableExecStatsDigestIsPinned) {
  const std::uint64_t expected[] = {
      11680948384757017534ull, 10526495183855319165ull,
      12818293126898399553ull, 4273571478972926160ull,
      17152789738517865775ull, 6331064062655787710ull,
      3783828640231414986ull};
  core::ApimConfig cfg;
  cfg.energy = digest::kDigestEnergy;
  cfg.reliability.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = reliability::LaneFaultTable(4, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 5, true);
  cfg.reliability.faults.add_mul_stuck(3, 0, 9, false);
  cfg.reliability.faults.add_mul_stuck(3, 1, 9, false);
  cfg.reliability.faults.add_add_stuck(1, 0, 2, true);
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    auto app = apps::make_application(kApps[a]);
    app->generate(kSizes[0], kSeed);
    core::ApimDevice device{cfg};
    Fnv1a h;
    for (const double v : app->run_apim(device)) h.mix(v);
    mix_stats(h, device.stats());
    EXPECT_GT(device.stats().retries, 0u) << kApps[a];
    EXPECT_EQ(h.value(), expected[a]) << kApps[a] << " digest=" << h.value();
  }
}

// -- Values-only device --------------------------------------------------------

core::ApimConfig config(unsigned n, unsigned mask, unsigned relax) {
  core::ApimConfig cfg;
  cfg.word_bits = n;
  cfg.approx = arith::ApproxConfig{mask, relax};
  return cfg;
}

/// Edge magnitudes of an n-bit word, then random ones.
std::vector<std::uint64_t> operands(unsigned n, util::Xoshiro256& rng) {
  const std::uint64_t max = util::low_mask(n);
  std::vector<std::uint64_t> v = {
      0, 1, 2, 3, max, max - 1, max >> 1, std::uint64_t{1} << (n - 1),
      0x5555555555555555ull & max, 0xAAAAAAAAAAAAAAAAull & max};
  for (int i = 0; i < 6; ++i) v.push_back(rng.next() & max);
  return v;
}

/// Every op of the device API on (a, b), magnitudes and signed forms, in
/// one fixed order.
std::vector<std::int64_t> all_ops(core::ApimDevice& d, std::uint64_t a,
                                  std::uint64_t b) {
  const auto sa = static_cast<std::int64_t>(a);
  const auto sb = static_cast<std::int64_t>(b);
  const unsigned n = d.config().word_bits;
  std::vector<std::int64_t> out;
  out.push_back(static_cast<std::int64_t>(d.mul_magnitude(a, b)));
  out.push_back(static_cast<std::int64_t>(d.add_magnitude(a, b)));
  out.push_back(static_cast<std::int64_t>(d.cmp_magnitude(a, b)));
  out.push_back(static_cast<std::int64_t>(d.popcnt_magnitude(a)));
  out.push_back(d.mul_int(sa, -sb));
  out.push_back(d.mul(-sa, -sb, util::FixedPointFormat{n - n / 2, n / 2}));
  out.push_back(d.add(sa, -sb));
  out.push_back(d.add(-sa, -sb));
  out.push_back(d.add_wide(sa << 20, -(sb << 21)));
  out.push_back(d.mac_int(sa, -sa, sb));
  return out;
}

TEST(ValuesOnly, OpsMatchTheWordModel) {
  util::Xoshiro256 rng(2412);
  for (unsigned n = 4; n <= 32; ++n) {
    const std::vector<std::uint64_t> v = operands(n, rng);
    for (unsigned mask = 0; mask <= n; ++mask) {
      for (unsigned relax = 0; relax <= 2 * n; ++relax) {
        core::ApimDevice full{config(n, mask, relax)};
        core::ApimDevice fast =
            core::ApimDevice::values_only(config(n, mask, relax));
        for (std::size_t i = 0; i < v.size(); ++i) {
          const std::uint64_t a = v[i];
          const std::uint64_t b = v[(i * 7 + 3) % v.size()];
          ASSERT_EQ(all_ops(fast, a, b), all_ops(full, a, b))
              << "n=" << n << " mask=" << mask << " relax=" << relax
              << " a=" << a << " b=" << b;
        }
        ASSERT_EQ(fast.stats(), core::ExecStats{});
      }
    }
  }
}

TEST(ValuesOnly, OpsMatchTheBitLevelEngine) {
  util::Xoshiro256 rng(2413);
  for (const unsigned n : {4u, 8u, 16u}) {
    const std::vector<std::uint64_t> v = operands(n, rng);
    for (const auto [mask, relax] :
         {std::pair{0u, 0u}, std::pair{0u, n}, std::pair{2u, 2 * n}}) {
      core::ApimConfig cfg = config(n, mask, relax);
      core::ApimDevice fast = core::ApimDevice::values_only(cfg);
      cfg.backend = core::Backend::kBitLevel;
      core::ApimDevice engine{cfg};
      for (std::size_t i = 0; i < v.size(); i += 3) {
        const std::uint64_t a = v[i];
        const std::uint64_t b = v[(i * 7 + 3) % v.size()];
        EXPECT_EQ(all_ops(fast, a, b), all_ops(engine, a, b))
            << "n=" << n << " mask=" << mask << " relax=" << relax
            << " a=" << a << " b=" << b;
      }
    }
  }
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

TEST(ValuesOnly, AppOutputsMatchTheFullModel) {
  for (const std::string& name : kApps) {
    for (const std::size_t elements : kSizes) {
      auto app = apps::make_application(name);
      app->generate(elements, kSeed);
      const std::vector<double> golden = app->run_golden();
      for (unsigned relax = 0; relax <= 64; relax += 4) {
        core::ApimConfig cfg;
        cfg.approx.relax_bits = relax;
        core::ApimDevice full{cfg};
        core::ApimDevice fast = core::ApimDevice::values_only(cfg);
        const std::vector<double> want = app->run_apim(full);
        EXPECT_EQ(bits(app->run_apim(fast)), bits(want))
            << name << " elements=" << elements << " relax=" << relax;
        EXPECT_EQ(fast.stats(), core::ExecStats{});
        // The tuner's probe reads the same loss a full-model run gives.
        const quality::QosEvaluation probe =
            apps::evaluate_relax(*app, golden, relax);
        const quality::QosEvaluation ref =
            quality::evaluate_qos(app->qos(), golden, want);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.loss),
                  std::bit_cast<std::uint64_t>(ref.loss))
            << name << " elements=" << elements << " relax=" << relax;
        EXPECT_EQ(probe.acceptable, ref.acceptable);
      }
    }
  }
}

TEST(ValuesOnly, StatsStayZero) {
  core::ApimDevice device = core::ApimDevice::values_only();
  (void)all_ops(device, 12345, 678);
  const std::pair<std::uint64_t, std::uint64_t> ops[] = {{3, 5}, {7, 11}};
  std::uint64_t values[2] = {};
  util::Cycles op_cycles[2] = {9, 9};
  device.mul_magnitude_batch(ops, values, op_cycles);
  EXPECT_EQ(values[1], 77u);
  EXPECT_EQ(op_cycles[0], 0u);
  EXPECT_EQ(op_cycles[1], 0u);
  const util::Cycles begin = device.parallel_region_begin();
  (void)device.add(1, 2);
  device.parallel_region_end(begin, 4);
  EXPECT_EQ(device.stats(), core::ExecStats{});
  EXPECT_EQ(device.energy_pj(), 0.0);

  // A clone keeps the mode; a full device's clone charges.
  core::ApimDevice clone = device.fresh_clone();
  (void)clone.mul_int(3, 5);
  EXPECT_EQ(clone.stats(), core::ExecStats{});
  core::ApimDevice full_clone = core::ApimDevice{}.fresh_clone();
  (void)full_clone.mul_int(3, 5);
  EXPECT_EQ(full_clone.stats().multiplies, 1u);
}

TEST(ValuesOnly, RejectsActiveReliability) {
  for (const reliability::ReliabilityPolicy policy :
       {reliability::ReliabilityPolicy::kDetectOnly,
        reliability::ReliabilityPolicy::kDetectAndRepair,
        reliability::ReliabilityPolicy::kTripleVote}) {
    core::ApimConfig cfg;
    cfg.reliability.policy = policy;
    EXPECT_THROW((void)core::ApimDevice::values_only(cfg),
                 std::invalid_argument)
        << reliability::to_string(policy);
  }
  // Injected faults make a config non-passive even with the policy off.
  core::ApimConfig faulty;
  faulty.reliability.faults = reliability::LaneFaultTable(4, 3);
  faulty.reliability.faults.add_mul_stuck(0, 0, 3, true);
  EXPECT_THROW((void)core::ApimDevice::values_only(faulty),
               std::invalid_argument);
  // The constructor's own checks still apply.
  EXPECT_THROW((void)core::ApimDevice::values_only(config(3, 0, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace apim
