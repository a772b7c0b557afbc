// Tests of the serving runtime's online health layer (serve/health.hpp +
// the engine hooks in serve/server.cpp): the per-domain state machine,
// the march-test scrub/repair model, and end-to-end chaos runs — seeded
// fault injection mid-serve with quarantine, relocation, degradation and
// re-admission. Suites are named Serve* so scripts/check_tsan.sh's ctest
// filter picks them up.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/trace_check.hpp"
#include "serve_chaos_harness.hpp"
#include "serve/health.hpp"
#include "serve/trace.hpp"
#include "snapshot_digest.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;
using namespace apim::serve_harness;
namespace health = apim::serve::health;
using serve::trace::Event;
using serve::trace::EventKind;
using serve::trace::EventLog;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// -- HealthMonitor state machine --------------------------------------------

TEST(ServeHealthMonitor, DetectionsSuspectAndCleanScrubRecovers) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_detections = 4;
  cfg.quarantine_detections = 100;
  health::HealthMonitor mon(2, cfg);

  mon.on_dispatch(0, 3, 0);
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kHealthy);
  mon.on_dispatch(0, 1, 0);  // Crosses the suspect threshold.
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kSuspect);
  EXPECT_TRUE(mon.domain(0).serving());
  EXPECT_EQ(mon.domain(1).state, health::DomainState::kHealthy);

  health::ScrubReport clean;
  clean.clean = true;
  EXPECT_FALSE(mon.on_scrub(0, clean));  // Not a readmission.
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kHealthy);
}

TEST(ServeHealthMonitor, EscalationQuarantinesImmediately) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  health::HealthMonitor mon(3, cfg);
  mon.on_dispatch(2, 0, 1);
  EXPECT_EQ(mon.domain(2).state, health::DomainState::kQuarantined);
  EXPECT_FALSE(mon.domain(2).serving());
  EXPECT_EQ(mon.serving_count(), 2u);
}

TEST(ServeHealthMonitor, DetectionFloodQuarantines) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_detections = 2;
  cfg.quarantine_detections = 10;
  health::HealthMonitor mon(1, cfg);
  mon.on_dispatch(0, 6, 0);
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kSuspect);
  mon.on_dispatch(0, 4, 0);  // Accumulates to the quarantine threshold.
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kQuarantined);
}

TEST(ServeHealthMonitor, ReadmissionNeedsCleanStreak) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.readmit_clean_scrubs = 2;
  cfg.max_repair_attempts = 10;
  health::HealthMonitor mon(1, cfg);
  mon.quarantine(0);

  health::ScrubReport dirty;
  dirty.clean = false;
  health::ScrubReport clean;
  clean.clean = true;

  EXPECT_FALSE(mon.on_scrub(0, clean));  // Streak 1 of 2.
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kQuarantined);
  EXPECT_FALSE(mon.on_scrub(0, dirty));  // Streak resets.
  EXPECT_FALSE(mon.on_scrub(0, clean));
  EXPECT_TRUE(mon.on_scrub(0, clean));  // Streak 2 of 2: readmitted.
  EXPECT_EQ(mon.domain(0).state, health::DomainState::kHealthy);
  EXPECT_EQ(mon.domain(0).repair_attempts, 0u);
}

TEST(ServeHealthMonitor, GivesUpAfterMaxRepairAttempts) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.max_repair_attempts = 2;
  health::HealthMonitor mon(1, cfg);
  mon.kill(0);
  health::ScrubReport dirty;  // A dead domain never scrubs clean.
  EXPECT_FALSE(mon.gave_up(0));
  EXPECT_FALSE(mon.on_scrub(0, dirty));
  EXPECT_FALSE(mon.gave_up(0));
  EXPECT_FALSE(mon.on_scrub(0, dirty));
  EXPECT_TRUE(mon.gave_up(0));
}

TEST(ServeHealthMonitor, RetestsStopOnceRepairAttemptsAreSpent) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.repair_interval = 50;
  cfg.max_repair_attempts = 2;
  health::HealthMonitor mon(1, cfg);
  mon.schedule_retest(0, 10);  // A serving domain gets no re-test.
  EXPECT_EQ(mon.next_timer(10), std::nullopt);

  mon.quarantine(0);
  health::ScrubReport dirty;
  util::Cycles now = 10;
  for (unsigned attempt = 0; attempt < cfg.max_repair_attempts; ++attempt) {
    mon.schedule_retest(0, now);
    ASSERT_EQ(mon.next_timer(now), now + cfg.repair_interval);
    EXPECT_FALSE(mon.take_retest(0, now + cfg.repair_interval - 1));
    now += cfg.repair_interval;
    EXPECT_TRUE(mon.take_retest(0, now));
    EXPECT_FALSE(mon.take_retest(0, now));  // Disarmed once taken.
    mon.on_scrub(0, dirty);
  }
  EXPECT_TRUE(mon.gave_up(0));
  mon.schedule_retest(0, now);
  EXPECT_EQ(mon.next_timer(now), std::nullopt);
  EXPECT_EQ(mon.domain(0).repair_at, std::nullopt);
}

TEST(ServeHealthMonitor, CountsEachQuarantineAndReadmissionEdgeOnce) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  health::HealthMonitor mon(2, cfg);
  mon.on_dispatch(0, 3, 1);  // Edge into quarantine.
  mon.on_dispatch(0, 2, 1);  // Already quarantined: no edge.
  mon.quarantine(0);
  const health::Domain& d = mon.domain(0);
  EXPECT_EQ(d.quarantines, 1u);
  EXPECT_EQ(d.dispatches, 2u);
  EXPECT_EQ(d.detections, 5u);
  EXPECT_EQ(d.escalations, 2u);

  health::ScrubReport clean;
  clean.clean = true;
  clean.stuck_found = 2;
  clean.repaired = 2;
  EXPECT_TRUE(mon.on_scrub(0, clean));  // Edge out of quarantine.
  EXPECT_FALSE(mon.on_scrub(0, clean));
  EXPECT_EQ(d.readmissions, 1u);
  EXPECT_EQ(d.scrubs, 2u);
  EXPECT_EQ(d.stuck_found, 4u);
  EXPECT_EQ(d.repaired_bits, 4u);

  health::ScrubReport dirty;
  EXPECT_FALSE(mon.on_scrub(0, dirty));  // A dirty pass quarantines again.
  EXPECT_EQ(d.quarantines, 2u);
  EXPECT_EQ(d.readmissions, 1u);

  // The report is the record's own counters.
  const std::vector<health::DomainReport> reports = mon.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].quarantines, 2u);
  EXPECT_EQ(reports[0].state, health::DomainState::kQuarantined);
  EXPECT_EQ(reports[1].dispatches, 0u);
}

TEST(ServeHealthMonitor, MissedScrubSlotsAreDropped) {
  health::HealthConfig cfg;
  cfg.enabled = true;
  cfg.scrub_interval = 100;
  health::HealthMonitor mon(4, cfg);
  EXPECT_EQ(mon.scrub_slot(), 100u);
  EXPECT_EQ(mon.take_scrub_slot(1000), 0u);
  EXPECT_TRUE(mon.domain(0).scrub_queued);
  // The slots missed between 100 and 1000 are not replayed.
  EXPECT_EQ(mon.take_scrub_slot(1000), std::nullopt);
  EXPECT_EQ(mon.scrub_slot(), 1100u);
  EXPECT_EQ(mon.take_scrub_slot(1100), 1u);

  // No slot comes while every serving domain has a pass queued.
  mon.quarantine(3);
  EXPECT_EQ(mon.take_scrub_slot(1200), 2u);
  EXPECT_EQ(mon.scrub_slot(), std::nullopt);
  EXPECT_EQ(mon.take_scrub_slot(1300), std::nullopt);
  mon.domain(0).scrub_queued = false;
  EXPECT_EQ(mon.take_scrub_slot(1400), 0u);

  cfg.enabled = false;
  const health::HealthMonitor off(4, cfg);
  EXPECT_EQ(off.scrub_slot(), std::nullopt);
  EXPECT_FALSE(off.scrub_due(1000));
}

TEST(ServeHealthMonitor, FaultScheduleFiresInTimeOrderTiesInScheduleOrder) {
  health::HealthConfig cfg;  // The schedule fires with the layer off too.
  const auto event = [](util::Cycles at, std::size_t domain,
                        health::DomainFaultEvent::Kind kind) {
    health::DomainFaultEvent e;
    e.at = at;
    e.domain = domain;
    e.kind = kind;
    return e;
  };
  using Kind = health::DomainFaultEvent::Kind;
  health::DomainFaultEvent decay = event(100, 1, Kind::kSetFaults);
  decay.faults = reliability::LaneFaultTable(2, 3);
  decay.faults.add_mul_stuck(0, 0, 3, true);
  cfg.fault_schedule = {event(300, 0, Kind::kClear), decay,
                        event(100, 2, Kind::kKill),
                        event(200, 3, Kind::kKill)};
  health::HealthMonitor mon(4, cfg, core::ApimConfig{}, 2);
  EXPECT_EQ(mon.next_timer(0), 100u);
  EXPECT_EQ(mon.next_timer(150), 150u);  // A due fault counts at `now`.
  EXPECT_EQ(mon.apply_next_fault(99), nullptr);

  std::vector<std::size_t> fired;
  while (const health::DomainFaultEvent* e = mon.apply_next_fault(1000))
    fired.push_back(e->domain);
  EXPECT_EQ(fired, (std::vector<std::size_t>{1, 2, 3, 0}));
  EXPECT_EQ(mon.next_timer(1000), std::nullopt);

  EXPECT_EQ(mon.domain(1).device.reliability.faults.stuck_count(), 1u);
  EXPECT_EQ(mon.domain(2).device.reliability.faults.stuck_count(),
            health::whole_domain_failure(2, 3).stuck_count());
  EXPECT_TRUE(mon.domain(0).device.reliability.faults.empty());
  // The monitor installs faults; only the engine's reaction quarantines.
  EXPECT_EQ(mon.serving_count(), 4u);
}

// -- Scrub / repair model ----------------------------------------------------

TEST(ServeScrub, RepairStuckClearsInDeterministicOrder) {
  reliability::LaneFaultTable table(2, 1);
  table.add_mul_stuck(0, 0, 3, true);
  table.add_add_stuck(0, 0, 1, false);
  table.add_mul_stuck(1, 0, 5, true);
  ASSERT_EQ(table.stuck_count(), 3u);
  EXPECT_EQ(table.repair_stuck(2), 2u);  // Lane 0's two bits go first.
  EXPECT_EQ(table.stuck_count(), 1u);
  EXPECT_EQ(table.repair_stuck(10), 1u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.repair_stuck(4), 0u);
}

TEST(ServeScrub, ScrubDomainFollowsTheMarchCostLaw) {
  health::HealthConfig cfg;
  cfg.scrub_rows = 8;
  cfg.scrub_cols = 64;
  cfg.spare_bits_per_scrub = 2;
  device::EnergyModel em;
  em.e_write_driver_pj = 0.05;
  em.e_switch_pj = 0.10;
  em.e_read_pj = 0.02;
  reliability::LaneFaultTable table(4, 3);
  table.add_mul_stuck(0, 0, 2, true);
  table.add_mul_stuck(1, 1, 4, true);
  table.add_add_stuck(2, 2, 0, false);

  health::ScrubReport r = health::scrub_domain(table, false, 4, cfg, em);
  EXPECT_EQ(r.stuck_found, 3u);
  EXPECT_EQ(r.repaired, 2u);  // Capped by spare_bits_per_scrub.
  EXPECT_FALSE(r.clean);
  // March cost: 5 cycles per row over scrub_rows rows on each lane.
  EXPECT_EQ(r.cycles, 8u * 4u * 5u);
  EXPECT_GT(r.energy_pj, 0.0);

  health::ScrubReport r2 = health::scrub_domain(table, false, 4, cfg, em);
  EXPECT_EQ(r2.stuck_found, 1u);
  EXPECT_EQ(r2.repaired, 1u);
  EXPECT_TRUE(r2.clean);

  // A dead domain never certifies clean, even with nothing left to fix.
  health::ScrubReport r3 = health::scrub_domain(table, true, 4, cfg, em);
  EXPECT_FALSE(r3.clean);
}

TEST(ServeScrub, WholeDomainFailureDefeatsEveryRedundancyDomain) {
  const reliability::LaneFaultTable table = health::whole_domain_failure(3, 2);
  // One stuck bit per (lane, domain) per unit: 3 lanes x 2 domains x 2.
  EXPECT_EQ(table.stuck_count(), 3u * 2u * 2u);
  // A single stuck-at-1 on bit 1 perturbs values by +-2 when it acts, so
  // the mod-3 residue check always catches an actual corruption.
  for (std::size_t lane = 0; lane < 3; ++lane) {
    for (std::size_t dom = 0; dom < 2; ++dom) {
      EXPECT_EQ(table.apply(lane, dom, true, 0, 16, 0, 0), 2u);
      EXPECT_EQ(table.apply(lane, dom, false, 2, 16, 0, 0), 2u);
    }
  }
}

// -- End-to-end chaos --------------------------------------------------------

/// A serving scenario sized so chaos runs finish fast: four streams,
/// exact-mode tenants on the detect-and-repair reliability tier.
ChaosSpec small_chaos_spec() {
  ChaosSpec spec;
  spec.scenario.seed = 20170604;
  spec.scenario.server.streams = 4;
  spec.scenario.server.lanes_per_stream = 8;
  spec.scenario.server.batch_window = 400;
  spec.scenario.server.dispatch_cycles = 32;
  spec.scenario.server.queue_capacity = 256;
  spec.scenario.server.escalate_on_miss = false;
  spec.scenario.server.health.scrub_interval = 4000;
  spec.scenario.server.health.suspect_detections = 4;
  // Only escalations (unverifiable results) should quarantine here.
  spec.scenario.server.health.quarantine_detections = 1u << 30;
  for (const char* name : {"vision", "sensor"}) {
    TenantSpec t;
    t.name = name;
    t.rate_per_kcycle = 6.0;
    t.requests = 120;
    t.min_ops = 2;
    t.max_ops = 6;
    t.width = 12;
    t.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
    spec.scenario.tenants.push_back(std::move(t));
  }
  spec.stuck_rate = 1e-3;
  spec.cells_per_unit = 256;
  spec.transient_rate = 1e-4;
  spec.kill_at = 8000;  // Mid-serve: arrivals span roughly 20k cycles.
  spec.kill_domain = 1;
  return spec;
}

TEST(ServeChaos, HealthLayerServesExactThroughKillAndDecay) {
  const ChaosSpec spec = small_chaos_spec();
  const Outcome on = run_chaos(spec, true);
  EXPECT_EQ(check_chaos_conservation(on), "");

  const CorruptionReport rep = count_corruption(on);
  EXPECT_GT(rep.ok, 0u);
  // The tentpole property: with the health layer on, no served value is
  // corrupted — unverifiable batches relocated instead of completing.
  EXPECT_EQ(rep.corrupted, 0u);
  EXPECT_EQ(rep.silent, 0u);

  // The kill was noticed: the domain quarantined, its work relocated,
  // and capacity dipped by exactly one stream.
  EXPECT_GE(on.snap.domains[spec.kill_domain].quarantines, 1u);
  EXPECT_TRUE(on.snap.domains[spec.kill_domain].dead);
  EXPECT_GT(on.snap.relocated_requests, 0u);
  EXPECT_EQ(on.snap.min_serving_domains, spec.scenario.server.streams - 1);
  EXPECT_GT(on.snap.scrub_passes, 0u);
}

TEST(ServeChaos, WithoutTheHealthLayerTheSameFaultsCorrupt) {
  const ChaosSpec spec = small_chaos_spec();
  const Outcome off = run_chaos(spec, false);
  EXPECT_EQ(check_chaos_conservation(off), "");
  EXPECT_EQ(off.snap.relocated_requests, 0u);
  EXPECT_EQ(off.snap.scrub_passes, 0u);
  const CorruptionReport rep = count_corruption(off);
  // The dead domain keeps serving garbage: corruption, some silent.
  EXPECT_GT(rep.corrupted, 0u);
}

TEST(ServeChaos, OutcomesAreHostThreadInvariant) {
  ThreadCountGuard guard;
  const ChaosSpec spec = small_chaos_spec();
  util::set_thread_count(1);
  const Outcome base = run_chaos(spec, true);
  for (const std::size_t threads : {2u, 7u}) {
    util::set_thread_count(threads);
    const Outcome other = run_chaos(spec, true);
    EXPECT_EQ(diff_outcomes(base, other), "") << threads << " threads";
  }
}

TEST(ServeChaos, SameSeedSameOutcome) {
  const ChaosSpec spec = small_chaos_spec();
  const Outcome a = run_chaos(spec, true);
  const Outcome b = run_chaos(spec, true);
  EXPECT_EQ(diff_outcomes(a, b), "");
}

/// small_chaos_spec() under kDegrade with ambient decay only.
ChaosSpec degrade_spec() {
  ChaosSpec spec = small_chaos_spec();
  spec.kill_at = 0;  // Ambient decay only.
  spec.stuck_rate = 4e-3;
  spec.transient_rate = 0.0;
  spec.scenario.server.health.mode = health::DegradeMode::kDegrade;
  spec.scenario.server.health.suspect_detections = 2;
  spec.scenario.server.health.scrub_interval = 200000;  // Stay suspect.
  return spec;
}

TEST(ServeChaos, DegradeModeUpgradesSuspectTraffic) {
  const Outcome out = run_chaos(degrade_spec(), true);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_GT(out.snap.degraded_ops, 0u);
  EXPECT_GT(out.snap.degraded_batches, 0u);
  // No zero-corruption claim here: triple-vote trades the residue check's
  // detection guarantee for masking, and correlated decay (two redundancy
  // domains stuck on the same output bit) can out-vote the clean domain.
  // The shed/relocate path (the tests above) is the airtight one.
}

/// Every MetricsSnapshot field of the kDegrade run above, pinned by
/// digest (tests/snapshot_digest.hpp): the run reaches upgraded batches,
/// scrubs, relocations and retry ladders, so a refactor that miscounts any
/// of them fails here, where two runs of one build would still agree. Its
/// event log is pinned too; attaching a log is observational, so the
/// snapshot digest is the untraced run's.
TEST(ServeChaos, DegradeSnapshotDigestIsPinned) {
  ChaosSpec spec = degrade_spec();
  spec.scenario.server.device.energy = digest::kDigestEnergy;
  EventLog log;
  spec.scenario.server.trace = &log;
  const Outcome out = run_chaos(spec, true);
  EXPECT_GT(out.snap.degraded_batches, 0u);
  EXPECT_GT(out.snap.scrub_passes, 0u);
  EXPECT_GT(out.snap.relocated_requests, 0u);
  EXPECT_GT(out.snap.device_stats.retries, 0u);
  constexpr std::uint64_t kDigest = 8764782856663922211ull;
  EXPECT_EQ(digest::of(out.snap), kDigest)
      << "digest=" << digest::of(out.snap);
  constexpr std::uint64_t kTraceDigest = 10788806897106872140ull;
  EXPECT_EQ(digest::of(log), kTraceDigest) << "digest=" << digest::of(log);
}

/// Every Response field of the kill-and-decay run under kShed, the mode
/// ext_chaos and the serve-chaos benchmark run: requests relocate off the
/// killed domain. Its event log is pinned too.
TEST(ServeChaos, ShedResponseDigestIsPinned) {
  ChaosSpec spec = small_chaos_spec();
  spec.scenario.server.device.energy = digest::kDigestEnergy;
  spec.scenario.server.health.mode = health::DegradeMode::kShed;
  EventLog log;
  spec.scenario.server.trace = &log;
  const Outcome out = run_chaos(spec, true);
  EXPECT_GT(out.snap.relocated_requests, 0u);
  constexpr std::uint64_t kDigest = 9969751131650424305ull;
  EXPECT_EQ(digest::of(out.responses), kDigest)
      << "digest=" << digest::of(out.responses);
  constexpr std::uint64_t kTraceDigest = 12542529791846833094ull;
  EXPECT_EQ(digest::of(log), kTraceDigest) << "digest=" << digest::of(log);
}

/// The same kill-and-decay schedule with the health layer off, the
/// unprotected side of the ext_chaos A/B: every domain dispatches with its
/// own fault table and nothing quarantines. Responses, snapshot and event
/// log pinned.
TEST(ServeChaos, HealthOffDigestsArePinned) {
  ChaosSpec spec = small_chaos_spec();
  spec.scenario.server.device.energy = digest::kDigestEnergy;
  EventLog log;
  spec.scenario.server.trace = &log;
  const Outcome out = run_chaos(spec, false);
  EXPECT_GT(count_corruption(out).corrupted, 0u);
  EXPECT_TRUE(out.snap.domains.empty());
  constexpr std::uint64_t kResponseDigest = 14372714290411817749ull;
  EXPECT_EQ(digest::of(out.responses), kResponseDigest)
      << "digest=" << digest::of(out.responses);
  constexpr std::uint64_t kSnapshotDigest = 482030223484161429ull;
  EXPECT_EQ(digest::of(out.snap), kSnapshotDigest)
      << "digest=" << digest::of(out.snap);
  constexpr std::uint64_t kTraceDigest = 1985770779739978075ull;
  EXPECT_EQ(digest::of(log), kTraceDigest) << "digest=" << digest::of(log);
}

/// The snapshot's scrub energy is the sum of its passes', each traced on
/// its kScrub event. Integer prices make the sum exact in any order.
TEST(ServeChaos, ScrubEnergySumsTheTracedPasses) {
  ChaosSpec spec = degrade_spec();
  spec.scenario.server.device.energy = digest::kDigestEnergy;
  EventLog log;
  spec.scenario.server.trace = &log;
  const Outcome out = run_chaos(spec, true);
  double traced_pj = 0.0;
  std::uint64_t passes = 0;
  for (const Event& e : log.events()) {
    if (e.kind != EventKind::kScrub) continue;
    traced_pj += e.energy_pj;
    ++passes;
  }
  EXPECT_GT(out.snap.scrub_energy_pj, 0.0);
  EXPECT_EQ(passes, out.snap.scrub_passes);
  EXPECT_EQ(out.snap.scrub_energy_pj, traced_pj);
}

TEST(ServeChaos, QuarantinedDomainRepairsAndReadmits) {
  ChaosSpec spec = small_chaos_spec();
  spec.stuck_rate = 0.0;  // Only the scheduled event below.
  spec.transient_rate = 0.0;
  spec.kill_at = 0;
  Scenario s = spec.scenario;
  s.server.health.enabled = true;
  s.server.health.repair_interval = 5000;
  // Defeat every redundancy domain WITHOUT marking the fabric dead: the
  // stuck rows are repairable, so off-line scrubs must re-earn admission.
  health::DomainFaultEvent decay;
  decay.at = 8000;
  decay.domain = 2;
  decay.kind = health::DomainFaultEvent::Kind::kSetFaults;
  decay.faults =
      health::whole_domain_failure(s.server.lanes_per_stream, 3);
  s.server.health.fault_schedule = {decay};
  const Outcome out = run_scenario(s);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_GE(out.snap.domains[2].quarantines, 1u);
  EXPECT_GE(out.snap.domains[2].readmissions, 1u);
  EXPECT_GT(out.snap.scrub_repaired_bits, 0u);
  // Recovered: by the end every domain serves again.
  EXPECT_EQ(out.snap.serving_domains(), s.server.streams);
  EXPECT_EQ(count_corruption(out).corrupted, 0u);
}

TEST(ServeChaos, AllDomainsKilledShedsInsteadOfHanging) {
  ChaosSpec spec = small_chaos_spec();
  Scenario s = spec.scenario;
  s.server.health.enabled = true;
  s.server.health.repair_interval = 4000;
  for (std::size_t d = 0; d < s.server.streams; ++d) {
    health::DomainFaultEvent kill;
    kill.at = 8000;
    kill.domain = d;
    kill.kind = health::DomainFaultEvent::Kind::kKill;
    s.server.health.fault_schedule.push_back(kill);
  }
  const Outcome out = run_scenario(s);  // Must terminate.
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(out.snap.serving_domains(), 0u);
  EXPECT_EQ(out.snap.min_serving_domains, 0u);
  EXPECT_GT(out.snap.rejected, 0u);
  EXPECT_EQ(count_corruption(out).corrupted, 0u);
}

TEST(ServeChaos, HealthOnWithoutFaultsStaysHealthyAndExact) {
  ChaosSpec spec = small_chaos_spec();
  spec.stuck_rate = 0.0;
  spec.transient_rate = 0.0;
  spec.kill_at = 0;
  const Outcome out = run_chaos(spec, true);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(count_corruption(out).corrupted, 0u);
  EXPECT_EQ(out.snap.relocated_requests, 0u);
  for (const auto& d : out.snap.domains) {
    EXPECT_EQ(d.state, health::DomainState::kHealthy);
    EXPECT_EQ(d.quarantines, 0u);
  }
  EXPECT_GT(out.snap.scrub_passes, 0u);  // Preventive scrub still runs.
  EXPECT_EQ(out.snap.scrub_repaired_bits, 0u);
}

// -- Rare health branches ----------------------------------------------------
//
// Each test drives one engine branch that the scenarios above never reach
// and checks its effect, request conservation and a clean trace.

/// Run `s` with `log` attached as its event stream.
Outcome run_traced(Scenario s, EventLog& log) {
  s.server.trace = &log;
  return run_scenario(s);
}

/// small_chaos_spec()'s scenario with the health layer on and no injected
/// faults: the probe runs below locate a scrub pass in its trace.
Scenario fault_free_health_scenario() {
  Scenario s = small_chaos_spec().scenario;
  s.server.health.enabled = true;
  return s;
}

/// With a scrub slot every 1000 cycles, a fault-free run scrubs each
/// domain again and again: a finished pass clears its domain's queued
/// mark, so the round-robin comes back to it.
TEST(ServeChaos, HealthyRunScrubsEveryDomainRepeatedly) {
  Scenario s = fault_free_health_scenario();
  s.server.health.scrub_interval = 1000;
  const Outcome out = run_scenario(s);
  ASSERT_EQ(out.snap.domains.size(), s.server.streams);
  for (std::size_t d = 0; d < out.snap.domains.size(); ++d)
    EXPECT_GE(out.snap.domains[d].scrubs, 2u) << "domain " << d;
}

health::DomainFaultEvent fault_event(util::Cycles at, std::size_t domain,
                                     health::DomainFaultEvent::Kind kind) {
  health::DomainFaultEvent e;
  e.at = at;
  e.domain = domain;
  e.kind = kind;
  return e;
}

/// A scrub pass of `domain` sealed or dispatched at cycle `at`.
struct ScrubAt {
  util::Cycles at = 0;
  std::size_t domain = 0;
};

/// Index of the first event after `from` that is a scrub event of `kind`
/// on `domain`, or events().size().
std::size_t next_scrub_event(const EventLog& log, std::size_t from,
                             EventKind kind, std::int64_t domain) {
  const std::vector<Event>& ev = log.events();
  for (std::size_t j = from + 1; j < ev.size(); ++j)
    if (ev[j].kind == kind && ev[j].scrub && ev[j].domain == domain) return j;
  return ev.size();
}

/// The first scrub pass sealed at some cycle t and not yet dispatched at
/// t + 1: a kill at t + 1 finds it waiting in the scheduler.
std::optional<ScrubAt> queued_scrub(const EventLog& log) {
  const std::vector<Event>& ev = log.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != EventKind::kBatchSeal || !ev[i].scrub) continue;
    const std::size_t d =
        next_scrub_event(log, i, EventKind::kDispatch, ev[i].domain);
    if (d == ev.size() || ev[d].at > ev[i].at + 1)
      return ScrubAt{ev[i].at, static_cast<std::size_t>(ev[i].domain)};
  }
  return std::nullopt;
}

/// The first scrub pass dispatched at some cycle t and still running at
/// t + 1: a kill at t + 1 aborts it.
std::optional<ScrubAt> running_scrub(const EventLog& log) {
  const std::vector<Event>& ev = log.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != EventKind::kDispatch || !ev[i].scrub) continue;
    const std::size_t c =
        next_scrub_event(log, i, EventKind::kComplete, ev[i].domain);
    if (c < ev.size() && ev[c].at > ev[i].at + 1)
      return ScrubAt{ev[i].at, static_cast<std::size_t>(ev[i].domain)};
  }
  return std::nullopt;
}

/// True when some scrub pass of `domain` was dispatched after cycle `at`.
bool scrub_dispatched_after(const EventLog& log, util::Cycles at,
                            std::size_t domain) {
  for (const Event& e : log.events()) {
    if (e.kind == EventKind::kDispatch && e.scrub && e.at > at &&
        e.domain == static_cast<std::int64_t>(domain)) {
      return true;
    }
  }
  return false;
}

TEST(ServeChaos, ClearedDomainServesExactAgain) {
  // Health off: the schedule still fires, so the killed domain serves
  // corrupt values until the clear restores its fabric.
  Scenario s = small_chaos_spec().scenario;
  constexpr util::Cycles kKillAt = 4000;
  constexpr util::Cycles kClearAt = 12000;
  using Kind = health::DomainFaultEvent::Kind;
  s.server.health.fault_schedule = {fault_event(kKillAt, 1, Kind::kKill),
                                    fault_event(kClearAt, 1, Kind::kClear)};
  EventLog log;
  const Outcome out = run_traced(s, log);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  Outcome before;
  Outcome after;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    Outcome& side = out.responses[i].dispatch >= kClearAt ? after : before;
    side.responses.push_back(out.responses[i]);
    side.trace.push_back(out.trace[i]);
  }
  EXPECT_GT(count_corruption(before).corrupted, 0u);  // The kill took.
  const CorruptionReport rep = count_corruption(after);
  EXPECT_GT(rep.ok, 0u);
  EXPECT_EQ(rep.corrupted, 0u);
}

TEST(ServeChaos, KillAbortsAnInFlightScrub) {
  const Scenario base = fault_free_health_scenario();
  EventLog probe;
  (void)run_traced(base, probe);
  const std::optional<ScrubAt> scrub = running_scrub(probe);
  ASSERT_TRUE(scrub.has_value()) << "probe run dispatched no scrub pass";

  Scenario s = base;
  s.server.health.fault_schedule = {fault_event(
      scrub->at + 1, scrub->domain, health::DomainFaultEvent::Kind::kKill)};
  EventLog log;
  const Outcome out = run_traced(s, log);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  std::size_t scrub_aborts = 0;
  for (const Event& e : log.events()) {
    if (e.kind == EventKind::kAbort && e.scrub &&
        e.domain == static_cast<std::int64_t>(scrub->domain)) {
      ++scrub_aborts;
    }
  }
  EXPECT_EQ(scrub_aborts, 1u);
  EXPECT_TRUE(out.snap.domains[scrub->domain].dead);
}

TEST(ServeChaos, RequestOutOfRelocationBudgetIsRejected) {
  ChaosSpec spec = small_chaos_spec();
  spec.scenario.server.health.max_relocations = 0;
  Scenario s = spec.scenario;
  s.server.health.enabled = true;
  s.server.health.fault_schedule = chaos_schedule(spec);
  EventLog log;
  const Outcome out = run_traced(s, log);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  EXPECT_GT(out.snap.relocation_rejects, 0u);
  EXPECT_EQ(out.snap.relocated_requests, 0u);  // No budget to move any.
  EXPECT_GE(out.snap.rejected, out.snap.relocation_rejects);
  EXPECT_EQ(count_corruption(out).corrupted, 0u);

  // The kill aborts a tenant batch mid-flight. Its members are rejected
  // without the unverified values their aborted dispatch wrote, like
  // every other response that was not served.
  std::size_t tenant_aborts = 0;
  for (const Event& e : log.events())
    if (e.kind == EventKind::kAbort && !e.scrub) ++tenant_aborts;
  EXPECT_GT(tenant_aborts, 0u);
  std::size_t unserved_with_values = 0;
  for (const serve::Response& r : out.responses) {
    if (r.status != serve::RequestStatus::kOk && !r.values.empty())
      ++unserved_with_values;
  }
  EXPECT_EQ(unserved_with_values, 0u);
}

TEST(ServeChaos, StrandedEngineDropsAQueuedScrub) {
  const Scenario base = fault_free_health_scenario();
  EventLog probe;
  (void)run_traced(base, probe);
  const std::optional<ScrubAt> scrub = queued_scrub(probe);
  ASSERT_TRUE(scrub.has_value()) << "probe run never queued a scrub pass";

  // Every domain dies while the pass waits, so no stream can ever take it.
  Scenario s = base;
  s.server.health.repair_interval = 4000;
  for (std::size_t d = 0; d < s.server.streams; ++d) {
    s.server.health.fault_schedule.push_back(fault_event(
        scrub->at + 1, d, health::DomainFaultEvent::Kind::kKill));
  }
  EventLog log;
  const Outcome out = run_traced(s, log);  // Must terminate.
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  EXPECT_EQ(out.snap.serving_domains(), 0u);
  EXPECT_FALSE(scrub_dispatched_after(log, scrub->at, scrub->domain));
  EXPECT_GT(out.snap.rejected, 0u);
}

TEST(ServeChaos, StrandedEngineRejectsBlockedArrivals) {
  Scenario s = small_chaos_spec().scenario;
  s.server.health.enabled = true;
  s.server.health.mode = health::DegradeMode::kBlock;
  s.server.health.repair_interval = 4000;
  for (std::size_t d = 0; d < s.server.streams; ++d) {
    s.server.health.fault_schedule.push_back(
        fault_event(8000, d, health::DomainFaultEvent::Kind::kKill));
  }
  EventLog log;
  const Outcome out = run_traced(s, log);  // Must terminate.
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  // Under kBlock nothing is refused at the door, so a request rejected
  // without ever being admitted was held back as a blocked arrival.
  std::vector<bool> admitted(out.responses.size(), false);
  for (const Event& e : log.events())
    if (e.kind == EventKind::kAdmit) admitted[e.req] = true;
  std::size_t blocked_rejects = 0;
  for (const Event& e : log.events())
    if (e.kind == EventKind::kReject && !admitted[e.req]) ++blocked_rejects;
  EXPECT_GT(blocked_rejects, 0u);
  EXPECT_EQ(out.snap.serving_domains(), 0u);
}

/// One stream whose only tenant batch is in flight when the stream dies
/// and is never re-tested, with a scrub pass queued behind that batch:
/// the aborted members are out of relocation budget, so once the kill
/// lands the scheduler holds only the scrub pass and nothing else is
/// pending.
serve::ServerConfig stranded_scrub_config(EventLog* log) {
  serve::ServerConfig cfg;
  cfg.streams = 1;
  cfg.lanes_per_stream = 4;
  cfg.batch_window = 10;
  cfg.trace = log;
  cfg.health.enabled = true;
  cfg.health.scrub_interval = 50;
  cfg.health.max_relocations = 0;
  cfg.health.max_repair_attempts = 0;
  cfg.health.fault_schedule = {
      fault_event(150, 0, health::DomainFaultEvent::Kind::kKill)};
  return cfg;
}

std::vector<serve::Request> stranded_scrub_trace() {
  std::vector<serve::Request> trace;
  for (util::Cycles at : {0u, 1u}) {
    serve::Request r;
    r.app = "solo";
    r.arrival = at;
    r.width = 16;
    r.operands = {{0xBEEF, 0x1234}, {0x7FFF, 0x7FFF}};
    trace.push_back(std::move(r));
  }
  return trace;
}

/// A stranded engine whose scheduler holds only scrub passes drops them
/// the same way in both driving modes: run_trace and a stepping driver
/// (the cluster's and the analytics runner's loop) emit the same log.
TEST(ServeChaos, StrandedScrubsDrainAlikeInBothDrivingModes) {
  EventLog replayed;
  serve::Server replay(stranded_scrub_config(&replayed));
  const std::vector<serve::Response> responses =
      replay.run_trace(stranded_scrub_trace());

  EventLog stepped;
  serve::Server stepper(stranded_scrub_config(&stepped));
  for (serve::Request& r : stranded_scrub_trace())
    (void)stepper.stage_request(std::move(r));
  while (const std::optional<util::Cycles> at = stepper.next_event_at())
    stepper.step_until(*at);

  // The corner is reached: both requests were aborted in flight and
  // rejected, the pass was queued but never dispatched, and the drain
  // debited it from the scrub tenant at the kill.
  for (const serve::Response& r : responses)
    EXPECT_EQ(r.status, serve::RequestStatus::kRejected);
  std::size_t scrub_seals = 0, scrub_dispatches = 0, drained = 0;
  for (const Event& e : replayed.events()) {
    if (e.kind == EventKind::kBatchSeal && e.scrub) ++scrub_seals;
    if (e.kind == EventKind::kDispatch && e.scrub) ++scrub_dispatches;
    if (e.kind == EventKind::kCreditSpend && e.app == health::kScrubTenant &&
        e.at >= 150)
      ++drained;
  }
  EXPECT_EQ(scrub_seals, 1u);
  EXPECT_EQ(scrub_dispatches, 0u);
  EXPECT_EQ(drained, 1u);
  EXPECT_EQ(replay.snapshot().serving_domains(), 0u);

  EXPECT_EQ(stepped.events().size(), replayed.events().size());
  EXPECT_EQ(digest::of(stepped), digest::of(replayed));
  EXPECT_EQ(digest::of(stepper.snapshot()), digest::of(replay.snapshot()));
  EXPECT_EQ(analysis::verify_trace(stepped), "");
}

TEST(ServeChaos, QueuedScrubOfALostDomainIsDropped) {
  const Scenario base = fault_free_health_scenario();
  EventLog probe;
  (void)run_traced(base, probe);
  const std::optional<ScrubAt> scrub = queued_scrub(probe);
  ASSERT_TRUE(scrub.has_value()) << "probe run never queued a scrub pass";

  // Only the pass's own domain dies; the others keep serving and pick
  // the pass up, but its target has left service.
  Scenario s = base;
  s.server.health.fault_schedule = {fault_event(
      scrub->at + 1, scrub->domain, health::DomainFaultEvent::Kind::kKill)};
  EventLog log;
  const Outcome out = run_traced(s, log);
  EXPECT_EQ(check_chaos_conservation(out), "");
  EXPECT_EQ(analysis::verify_trace(log), "");

  EXPECT_FALSE(scrub_dispatched_after(log, scrub->at, scrub->domain));
  EXPECT_EQ(out.snap.serving_domains(), s.server.streams - 1);
  EXPECT_EQ(count_corruption(out).corrupted, 0u);
}

/// A re-test due at cycle 0 runs: with repair_interval 0, a domain killed
/// at cycle 0 is re-tested at once, one pass per step, until its repair
/// attempts are spent, while the other domain serves every request.
TEST(ServeChaos, DomainKilledAtCycleZeroIsRetestedAtCycleZero) {
  EventLog log;
  serve::ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 4;
  cfg.trace = &log;
  cfg.health.enabled = true;
  cfg.health.repair_interval = 0;
  cfg.health.fault_schedule = {
      fault_event(0, 0, health::DomainFaultEvent::Kind::kKill)};
  serve::Server server(cfg);
  const std::vector<serve::Response> responses =
      server.run_trace(stranded_scrub_trace());
  for (const serve::Response& r : responses)
    EXPECT_EQ(r.status, serve::RequestStatus::kOk);
  EXPECT_EQ(analysis::verify_trace(log), "");

  std::size_t retests = 0;
  for (const Event& e : log.events()) {
    if (e.kind != EventKind::kScrub || e.domain != 0) continue;
    EXPECT_TRUE(e.offline);
    EXPECT_EQ(e.at, 0u);
    ++retests;
  }
  const serve::MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(retests, cfg.health.max_repair_attempts);
  EXPECT_EQ(snap.domains[0].scrubs, cfg.health.max_repair_attempts);
  EXPECT_EQ(snap.domains[0].state, health::DomainState::kQuarantined);
  EXPECT_EQ(snap.serving_domains(), 1u);
}

}  // namespace
