// Tests of the fault-tolerance stack (src/reliability/): residue codes,
// BIST march scans, spare-row remapping, scratch-band quarantine, the
// device-level policies, and the Monte Carlo fault campaign — including
// the headline resilience property: at a 1e-3 stuck-at rate the
// unprotected image kernels fail their 30 dB PSNR criterion while
// detect-and-repair keeps every one above it, reproducibly from a fixed
// seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "arith/compare_units.hpp"
#include "core/apim.hpp"
#include "crossbar/crossbar.hpp"
#include "crossbar/scratch_allocator.hpp"
#include "device/energy_model.hpp"
#include "reliability/bist.hpp"
#include "reliability/campaign.hpp"
#include "reliability/fault_state.hpp"
#include "reliability/policy.hpp"
#include "reliability/residue.hpp"
#include "util/rng.hpp"

namespace apim::reliability {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

// ------------------------------------------------------------- residue --

TEST(Residue, ExactResultsAlwaysMatch) {
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next() & 0xFFFFFFFFu;
    const std::uint64_t b = rng.next() & 0xFFFFFFFFu;
    EXPECT_TRUE(residue_match_mul(a, b, a * b));
    EXPECT_TRUE(residue_match_add(a, b, a + b));
  }
}

TEST(Residue, EverySingleBitCorruptionIsCaught) {
  // 2^k mod 3 is 1 or 2, never 0, so flipping ANY single output bit moves
  // the residue — exhaustively over every bit position of the product and
  // the sum, for many operand pairs.
  util::Xoshiro256 rng(12);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next() & 0xFFFFFFFFu;
    const std::uint64_t b = rng.next() & 0xFFFFFFFFu;
    const std::uint64_t product = a * b;
    for (unsigned bit = 0; bit < 64; ++bit) {
      EXPECT_FALSE(residue_match_mul(a, b, product ^ (std::uint64_t{1} << bit)))
          << "a=" << a << " b=" << b << " bit=" << bit;
    }
    const std::uint64_t sum = a + b;
    for (unsigned bit = 0; bit < 33; ++bit) {
      EXPECT_FALSE(residue_match_add(a, b, sum ^ (std::uint64_t{1} << bit)))
          << "a=" << a << " b=" << b << " bit=" << bit;
    }
  }
}

TEST(Residue, CostScalesWithCheckedBits) {
  const ResidueCost small = residue_check_cost(32, em());
  const ResidueCost large = residue_check_cost(128, em());
  EXPECT_EQ(small.cycles, 16u);
  EXPECT_EQ(large.cycles, 64u);
  EXPECT_GT(small.energy_pj, 0.0);
  EXPECT_DOUBLE_EQ(large.energy_pj, 4.0 * small.energy_pj);
}

// ---------------------------------------------------------------- BIST --

TEST(Bist, HealthyFabricIsNeverFlagged) {
  BlockedCrossbar xbar(CrossbarConfig{3, 16, 32});
  const MarchReport report = march_scan(xbar, 1, 0, 16, 0, 32, em());
  EXPECT_TRUE(report.faulty_rows.empty());
  EXPECT_EQ(report.rows_scanned, 16u);
  EXPECT_EQ(report.cells_tested, 16u * 32u);
  // W0 R0 W1 R1 W0: five row-parallel cycles per row.
  EXPECT_EQ(report.cost.cycles, 16u * 5u);
  EXPECT_GT(report.cost.energy_pj, 0.0);
}

TEST(Bist, EverySeededStuckAtInScannedRegionIsFlagged) {
  // Property: a stuck-at fault at ANY scanned cell, of either polarity,
  // puts exactly its row in the report.
  for (std::size_t row = 0; row < 8; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      for (const bool value : {false, true}) {
        BlockedCrossbar xbar(CrossbarConfig{2, 8, 8});
        xbar.block(1).inject_stuck_at(row, col, value);
        const MarchReport report = march_scan(xbar, 1, 0, 8, 0, 8, em());
        ASSERT_EQ(report.faulty_rows.size(), 1u)
            << "row=" << row << " col=" << col << " value=" << value;
        EXPECT_EQ(report.faulty_rows[0], row);
      }
    }
  }
}

TEST(Bist, ScanChargesWearOnTheFabric) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8});
  const std::uint64_t before = xbar.total_switches();
  (void)march_scan(xbar, 1, 0, 8, 0, 8, em());
  EXPECT_GT(xbar.total_switches(), before);
}

TEST(Bist, ScanRespectsRowAndColumnBounds) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 16});
  xbar.block(1).inject_stuck_at(6, 12, true);  // Outside the scanned window.
  const MarchReport report = march_scan(xbar, 1, 0, 4, 0, 8, em());
  EXPECT_TRUE(report.faulty_rows.empty());
}

// ------------------------------------------------------ spare remapping --

TEST(SpareRows, RemapRedirectsDecoderAccesses) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8, /*spare_rows=*/2});
  EXPECT_EQ(xbar.physical_row(1, 3), 3u);
  EXPECT_EQ(xbar.spares_remaining(1), 2u);

  ASSERT_TRUE(xbar.remap_row(1, 3));
  EXPECT_EQ(xbar.physical_row(1, 3), 8u);  // First spare.
  EXPECT_EQ(xbar.spares_remaining(1), 1u);
  EXPECT_EQ(xbar.remapped_row_count(1), 1u);
  // Other rows and blocks are untouched.
  EXPECT_EQ(xbar.physical_row(1, 4), 4u);
  EXPECT_EQ(xbar.physical_row(0, 3), 3u);

  // Logical accesses land on the spare transparently.
  xbar.set(CellAddr{1, 3, 5}, true);
  EXPECT_TRUE(xbar.get(CellAddr{1, 3, 5}));
  EXPECT_TRUE(xbar.block(1).get(8, 5));   // Physically on the spare row.
  EXPECT_FALSE(xbar.block(1).get(3, 5));  // The quarantined row is idle.
}

TEST(SpareRows, RemappingTwiceBurnsTheNextSpare) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8, 2});
  ASSERT_TRUE(xbar.remap_row(1, 0));
  EXPECT_EQ(xbar.physical_row(1, 0), 8u);
  ASSERT_TRUE(xbar.remap_row(1, 0));  // First spare was bad too.
  EXPECT_EQ(xbar.physical_row(1, 0), 9u);
  EXPECT_FALSE(xbar.remap_row(1, 0));  // Out of spares.
  EXPECT_EQ(xbar.spares_remaining(1), 0u);
}

TEST(SpareRows, ScanAndRepairRestoresAFaultyRow) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8, 2});
  xbar.block(1).inject_stuck_at(2, 4, true);
  const RepairReport report = scan_and_repair(xbar, 1, 0, 8, 0, 8, em());
  EXPECT_EQ(report.faulty_rows, 1u);
  EXPECT_EQ(report.spares_used, 1u);
  EXPECT_EQ(report.unrepaired_rows, 0u);
  // The repaired logical row now holds values again.
  xbar.set(CellAddr{1, 2, 4}, false);
  EXPECT_FALSE(xbar.get(CellAddr{1, 2, 4}));
  // And a re-scan finds a clean region.
  EXPECT_TRUE(march_scan(xbar, 1, 0, 8, 0, 8, em()).faulty_rows.empty());
}

TEST(SpareRows, DefectiveSparesAreBurnedAndRetested) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8, 2});
  xbar.block(1).inject_stuck_at(2, 4, true);
  xbar.block(1).inject_stuck_at(8, 1, false);  // First spare is bad too.
  const RepairReport report = scan_and_repair(xbar, 1, 0, 8, 0, 8, em());
  EXPECT_EQ(report.faulty_rows, 1u);
  EXPECT_EQ(report.spares_used, 2u);
  EXPECT_EQ(report.unrepaired_rows, 0u);
  EXPECT_EQ(xbar.physical_row(1, 2), 9u);
}

TEST(SpareRows, RepairReportsUnrepairableRows) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8, /*spare_rows=*/1});
  xbar.block(1).inject_stuck_at(2, 4, true);
  xbar.block(1).inject_stuck_at(5, 0, false);
  const RepairReport report = scan_and_repair(xbar, 1, 0, 8, 0, 8, em());
  EXPECT_EQ(report.faulty_rows, 2u);
  EXPECT_EQ(report.spares_used, 1u);
  EXPECT_EQ(report.unrepaired_rows, 1u);
}

TEST(SpareRows, ZeroSparesBehavesAsBefore) {
  BlockedCrossbar xbar(CrossbarConfig{2, 8, 8});
  EXPECT_EQ(xbar.spares_remaining(1), 0u);
  EXPECT_FALSE(xbar.remap_row(1, 0));
  EXPECT_EQ(xbar.physical_row(1, 0), 0u);
}

// -------------------------------------------------- scratch quarantine --

TEST(Quarantine, AllocatorSkipsQuarantinedBands) {
  crossbar::RotatingScratchAllocator bands(/*first_row=*/0, /*rows=*/12,
                                           /*band_rows=*/4);
  ASSERT_EQ(bands.band_count(), 3u);
  bands.quarantine_band(1);
  EXPECT_TRUE(bands.band_quarantined(1));
  EXPECT_EQ(bands.healthy_band_count(), 2u);
  for (int i = 0; i < 6; ++i) EXPECT_NE(bands.next_band(), bands.band_base(1));
}

// -------------------------------------------------------- fault table --

TEST(LaneFaultTable, EmptyAndStatelessApplication) {
  LaneFaultTable table(4, 3);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.apply(0, 0, true, 42, 16, 7, 0), 42u);

  table.add_mul_stuck(2, 0, 5, true);
  EXPECT_FALSE(table.empty());
  // Stuck bits hit their own (lane, domain) only.
  EXPECT_EQ(table.apply(2, 0, true, 0, 16, 7, 0), 1u << 5);
  EXPECT_EQ(table.apply(2, 1, true, 0, 16, 7, 0), 0u);
  EXPECT_EQ(table.apply(1, 0, true, 0, 16, 7, 0), 0u);
  EXPECT_EQ(table.apply(2, 0, false, 0, 16, 7, 0), 0u);  // Adder unaffected.
  // Re-application is idempotent: pure function of its arguments.
  EXPECT_EQ(table.apply(2, 0, true, 0, 16, 7, 0),
            table.apply(2, 0, true, 0, 16, 7, 0));
}

TEST(LaneFaultTable, TransientFlipsExactlyOneBitAtRateOne) {
  LaneFaultTable table(1, 1);
  table.set_transient(1.0, 99);
  for (std::uint64_t op = 0; op < 64; ++op) {
    const std::uint64_t v = table.apply(0, 0, true, 0, 32, op, 0);
    EXPECT_EQ(__builtin_popcountll(v), 1) << "op=" << op;
    EXPECT_LT(v, std::uint64_t{1} << 32);
    // Fresh noise per attempt, same noise per replay.
    EXPECT_EQ(v, table.apply(0, 0, true, 0, 32, op, 0));
  }
}

/// A stuck bit outside the table's shape throws in every build type and
/// leaves the table as it was (unchecked, the write on a default 0-lane
/// table lands past its empty vector).
TEST(LaneFaultTable, RejectsStuckBitsOutsideItsShape) {
  LaneFaultTable empty_table;
  EXPECT_THROW(empty_table.add_mul_stuck(0, 0, 3, true), std::out_of_range);
  EXPECT_THROW(empty_table.add_add_stuck(0, 0, 3, true), std::out_of_range);
  EXPECT_TRUE(empty_table.empty());

  LaneFaultTable table(4, 3);
  for (const bool mul : {true, false}) {
    const auto add = [&](std::size_t lane, std::size_t domain, unsigned bit) {
      if (mul) table.add_mul_stuck(lane, domain, bit, true);
      else table.add_add_stuck(lane, domain, bit, true);
    };
    const std::size_t before = table.stuck_count();
    EXPECT_THROW(add(4, 0, 0), std::out_of_range) << "lane, mul=" << mul;
    EXPECT_THROW(add(0, 3, 0), std::out_of_range) << "domain, mul=" << mul;
    EXPECT_THROW(add(0, 0, 64), std::out_of_range) << "bit, mul=" << mul;
    EXPECT_EQ(table.stuck_count(), before);
    add(3, 2, 63);  // The far corner of the shape is inside it.
  }
  EXPECT_EQ(table.stuck_count(), 2u);
  EXPECT_EQ(table.apply(3, 2, true, 0, 64, 0, 0), std::uint64_t{1} << 63);
  EXPECT_EQ(table.apply(3, 2, false, 0, 64, 0, 0), std::uint64_t{1} << 63);
}

// ------------------------------------------------------ device policies --

core::ApimConfig small_device_config() {
  core::ApimConfig cfg;
  cfg.word_bits = 16;
  return cfg;
}

TEST(DevicePolicy, OffSilentlyCorruptsResults) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);
  core::ApimDevice device{cfg};
  // 2*3 = 6: bit 7 is clear, the stuck-at-1 forces it.
  EXPECT_EQ(device.mul_magnitude(2, 3), 6u | (1u << 7));
  EXPECT_EQ(device.stats().residue_checks, 0u);
  EXPECT_EQ(device.stats().faults_detected, 0u);
  EXPECT_FALSE(device.degraded());
}

TEST(DevicePolicy, DetectOnlyCountsButDoesNotCorrect) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectOnly;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(2, 3), 6u | (1u << 7));
  EXPECT_EQ(device.stats().residue_checks, 1u);
  EXPECT_EQ(device.stats().faults_detected, 1u);
  EXPECT_EQ(device.stats().retries, 0u);
}

TEST(DevicePolicy, DetectionCostsCyclesAndEnergy) {
  core::ApimConfig clean = small_device_config();
  core::ApimDevice baseline{clean};
  (void)baseline.mul_magnitude(1234, 567);

  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectOnly;
  cfg.reliability.faults = LaneFaultTable(1, 3);  // Healthy but checked.
  cfg.reliability.faults.add_add_stuck(0, 2, 0, true);  // Non-empty table.
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(1234, 567), 1234u * 567u);
  EXPECT_GT(device.stats().cycles, baseline.stats().cycles);
  EXPECT_GT(device.stats().energy_ops_pj, baseline.stats().energy_ops_pj);
}

TEST(DevicePolicy, RepairRetriesOnHealthyDomainAndCorrects) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);  // Primary faulty.
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(2, 3), 6u);  // Corrected.
  EXPECT_EQ(device.stats().faults_detected, 1u);
  EXPECT_EQ(device.stats().retries, 1u);
  EXPECT_EQ(device.stats().residue_checks, 2u);
  EXPECT_EQ(device.stats().escalations, 0u);
  EXPECT_FALSE(device.degraded());
}

/// Exact results of a healthy primary domain pass their residue checks,
/// whatever the operands: nothing is detected or retried. Compare's check
/// is on a + ~b, which, unlike a sum or a product, is not symmetric in a
/// and b.
TEST(DevicePolicy, HealthyPrimaryDomainNeverDetects) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_add_stuck(0, 2, 0, true);  // Non-empty table.
  core::ApimDevice device{cfg};
  for (std::uint64_t a = 0; a < 12; ++a) {
    for (std::uint64_t b = 0; b < 12; ++b) {
      EXPECT_EQ(device.mul_magnitude(a, b), a * b);
      EXPECT_EQ(device.add_magnitude(a, b), a + b);
      EXPECT_EQ(device.cmp_magnitude(a, b), a < b    ? arith::kCmpLt
                                             : a == b ? arith::kCmpEq
                                                      : arith::kCmpGt);
    }
  }
  EXPECT_EQ(device.stats().residue_checks, 3u * 12u * 12u);
  EXPECT_EQ(device.stats().faults_detected, 0u);
  EXPECT_EQ(device.stats().retries, 0u);
}

TEST(DevicePolicy, ExhaustedLadderEscalatesAndFlagsDegraded) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  for (std::size_t d = 0; d < 3; ++d)
    cfg.reliability.faults.add_mul_stuck(0, d, 7, true);
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(2, 3), 6u | (1u << 7));
  EXPECT_EQ(device.stats().retries, 2u);
  EXPECT_EQ(device.stats().escalations, 1u);
  EXPECT_TRUE(device.degraded());
}

TEST(DevicePolicy, ApproximateOpsSkipResidueChecking) {
  core::ApimConfig cfg = small_device_config();
  cfg.approx.relax_bits = 8;  // Both the multiplier and the adder relax.
  cfg.reliability.policy = ReliabilityPolicy::kDetectOnly;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_add_stuck(0, 2, 0, true);  // Non-empty table.
  core::ApimDevice device{cfg};
  (void)device.mul_magnitude(100, 200);
  (void)device.add_magnitude(100, 200);
  EXPECT_EQ(device.stats().residue_checks, 0u);
}

TEST(DevicePolicy, TripleVoteOutvotesASingleFaultyDomain) {
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kTripleVote;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(2, 3), 6u);
  EXPECT_EQ(device.stats().votes, 1u);
  EXPECT_EQ(device.stats().faults_detected, 1u);
  EXPECT_EQ(device.stats().retries, 0u);

  // The redundant copies triple the op energy (plus the vote step).
  core::ApimDevice baseline{small_device_config()};
  (void)baseline.mul_magnitude(2, 3);
  EXPECT_GT(device.stats().energy_ops_pj,
            3.0 * baseline.stats().energy_ops_pj);
}

TEST(DevicePolicy, TripleVoteWorksUnderApproximation) {
  // Residue codes cannot arbitrate approximate results; voting can,
  // because all three copies compute the same approximate value.
  core::ApimConfig approx_cfg = small_device_config();
  approx_cfg.approx.relax_bits = 8;
  core::ApimDevice reference{approx_cfg};
  const std::uint64_t expected = reference.mul_magnitude(12345, 999);

  core::ApimConfig cfg = approx_cfg;
  cfg.reliability.policy = ReliabilityPolicy::kTripleVote;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 3, true);
  cfg.reliability.faults.add_mul_stuck(0, 0, 9, false);
  core::ApimDevice device{cfg};
  EXPECT_EQ(device.mul_magnitude(12345, 999), expected);
}

TEST(DevicePolicy, RepairSurvivesTransientStorm) {
  // Transient flips corrupt the primary execution; the retry draws fresh
  // noise, so with a moderate rate the ladder recovers the exact result.
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.policy = ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.set_transient(0.05, 424242);
  core::ApimDevice device{cfg};
  util::Xoshiro256 rng(5);
  int corrected = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t a = rng.next() & 0xFFFFu;
    const std::uint64_t b = rng.next() & 0xFFFFu;
    const std::uint64_t before = device.stats().retries;
    EXPECT_EQ(device.mul_magnitude(a, b), a * b) << "i=" << i;
    if (device.stats().retries > before) ++corrected;
  }
  EXPECT_GT(corrected, 0);
  EXPECT_FALSE(device.degraded());
}

TEST(DevicePolicy, FaultStateSurvivesDeviceCloning) {
  // parallel_map workers are built as ApimDevice{device.config()}: the
  // fault table rides in the config, so clones corrupt identically.
  core::ApimConfig cfg = small_device_config();
  cfg.reliability.faults = LaneFaultTable(1, 3);
  cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);
  core::ApimDevice device{cfg};
  core::ApimDevice clone{device.config()};
  EXPECT_EQ(device.mul_magnitude(2, 3), clone.mul_magnitude(2, 3));
  EXPECT_EQ(clone.mul_magnitude(5, 5), 25u | (1u << 7));
}

// ------------------------------------------------------------ campaign --

CampaignConfig small_campaign(ReliabilityPolicy policy) {
  CampaignConfig cfg;
  cfg.apps = {"Sobel", "Robert", "Sharpen"};
  cfg.elements = 1024;
  cfg.trials = 2;
  cfg.stuck_rate = 1e-3;
  cfg.policy = policy;
  cfg.lanes = 16;    // Smaller fabric population keeps the test fast.
  cfg.fault_seed = 7;  // Fixed silicon: reproduces the exact runs below.
  return cfg;
}

TEST(Campaign, DeterministicAcrossRuns) {
  const CampaignConfig cfg = small_campaign(ReliabilityPolicy::kDetectAndRepair);
  const CampaignResult a = run_campaign(cfg);
  const CampaignResult b = run_campaign(cfg);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].qos.metric, b.runs[i].qos.metric) << i;
    EXPECT_EQ(a.runs[i].cycles, b.runs[i].cycles) << i;
    EXPECT_EQ(a.runs[i].energy_pj, b.runs[i].energy_pj) << i;
    EXPECT_EQ(a.runs[i].projected_bits, b.runs[i].projected_bits) << i;
    EXPECT_EQ(a.runs[i].retries, b.runs[i].retries) << i;
  }
}

TEST(Campaign, RepairKeepsEveryImageKernelAboveThreshold) {
  // The headline acceptance property (ISSUE): at a 1e-3 stuck-at rate the
  // unprotected device fails the 30 dB PSNR criterion on the image
  // kernels, while detect-and-repair (BIST + spares + residue retry)
  // keeps every run above it. Same fault seed on both sides: identical
  // silicon, different policy.
  const CampaignResult off = run_campaign(small_campaign(ReliabilityPolicy::kOff));
  const CampaignResult repaired =
      run_campaign(small_campaign(ReliabilityPolicy::kDetectAndRepair));

  ASSERT_FALSE(off.runs.empty());
  for (const CampaignRun& run : off.runs) {
    EXPECT_GT(run.projected_bits, 0u) << run.app << " trial " << run.trial;
    EXPECT_FALSE(run.qos.acceptable) << run.app << " trial " << run.trial;
  }
  EXPECT_TRUE(repaired.all_acceptable());
  EXPECT_EQ(repaired.accept_fraction(), 1.0);
  for (const CampaignRun& run : repaired.runs) {
    EXPECT_GE(run.qos.metric, 30.0) << run.app << " trial " << run.trial;
    // Repair pays: the BIST scan cycles land on the device. (A block can
    // legitimately run out of spares — unrepaired_rows > 0 — and still
    // pass: that residue is exactly what the retry ladder covers.)
    EXPECT_GT(run.cycle_overhead, 0.0) << run.app;
  }
}

TEST(Campaign, VoteAlsoProtectsAndOverheadIsCharged) {
  const CampaignResult vote =
      run_campaign(small_campaign(ReliabilityPolicy::kTripleVote));
  EXPECT_TRUE(vote.all_acceptable());
  for (const CampaignRun& run : vote.runs) {
    EXPECT_GT(run.votes, 0u);
    // Micro-op energy triples; the per-cycle controller overhead does not
    // (the redundant blocks run in the same cycles), so the TOTAL energy
    // lands well above the unprotected run but below a naive 3x.
    EXPECT_GT(run.energy_overhead, 0.4) << run.app;
    EXPECT_LT(run.energy_overhead, 2.0) << run.app;
  }
}

TEST(Campaign, CleanFabricPassesEverywhere) {
  CampaignConfig cfg = small_campaign(ReliabilityPolicy::kOff);
  cfg.stuck_rate = 0.0;
  cfg.trials = 1;
  const CampaignResult result = run_campaign(cfg);
  EXPECT_TRUE(result.all_acceptable());
  for (const CampaignRun& run : result.runs) {
    EXPECT_EQ(run.injected_cells, 0u);
    EXPECT_EQ(run.projected_bits, 0u);
    EXPECT_EQ(run.cycle_overhead, 0.0);
  }
}

}  // namespace
}  // namespace apim::reliability
