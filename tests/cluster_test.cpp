// Cluster-layer tests: topology cost model, consistent-hash placement,
// rebalancer decisions, and the router/migration edge cases the
// determinism contract calls out — single-chip degeneracy to the plain
// server, empty override tables, total-failure shedding, migrations
// racing in-flight work, and bit-exactness across seeds and host thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "cluster/rebalancer.hpp"
#include "cluster/topology.hpp"
#include "cluster_harness.hpp"
#include "serve_harness.hpp"
#include "util/thread_pool.hpp"

namespace apim {
namespace {

using cluster_harness::ClusterOutcome;
using cluster_harness::ClusterScenario;
using cluster_harness::run_cluster_scenario;

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// -- Topology cost model -----------------------------------------------------

TEST(ClusterTopology, StarHopCounts) {
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kStar, 4, 2, 2), 0u);
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kStar, 4, 0, 3), 2u);
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kStar, 16, 7, 8), 2u);
}

TEST(ClusterTopology, Mesh2DManhattanDistance) {
  // 4 chips tile a 2x2 grid: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1).
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kMesh2D, 4, 0, 1), 1u);
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kMesh2D, 4, 0, 3), 2u);
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kMesh2D, 4, 1, 2), 2u);
  // 9 chips tile 3x3: corners are 4 hops apart.
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kMesh2D, 9, 0, 8), 4u);
  EXPECT_EQ(cluster::hop_count(cluster::Topology::kMesh2D, 9, 4, 4), 0u);
}

TEST(ClusterTopology, RouteCostFormulas) {
  cluster::InterconnectConfig ic;
  ic.hop_latency_cycles = 24;
  ic.link_bits = 128;
  ic.pj_per_bit_hop = 2.0;
  EXPECT_EQ(cluster::route_cycles(ic, 0, 4096), 0u);
  // 4096 bits over a 128-bit link = 32 beats; 2 hops = 2*(24+32).
  EXPECT_EQ(cluster::route_cycles(ic, 2, 4096), 112u);
  // Partial beats round up: 1 bit still costs a beat.
  EXPECT_EQ(cluster::route_cycles(ic, 1, 1), 25u);
  EXPECT_DOUBLE_EQ(cluster::route_energy_pj(ic, 2, 4096), 16384.0);
}

// -- Placement ---------------------------------------------------------------

TEST(ClusterPlacement, EmptyOverrideTableUsesConsistentHash) {
  const cluster::Placement p(64, 4, 2017);
  for (std::size_t s = 0; s < 64; ++s) EXPECT_LT(p.chip_for(s), 4u);
  // Every chip gets some shards at this shard:chip ratio.
  std::vector<std::size_t> count(4, 0);
  for (std::size_t s = 0; s < 64; ++s) ++count[p.chip_for(s)];
  for (std::size_t c = 0; c < 4; ++c) EXPECT_GT(count[c], 0u) << "chip " << c;
  // Same parameters, same ring, same assignment.
  const cluster::Placement q(64, 4, 2017);
  EXPECT_EQ(p.assignment(), q.assignment());
}

TEST(ClusterPlacement, GrowingTheClusterMovesFewShards) {
  const cluster::Placement p4(256, 4, 2017);
  const cluster::Placement p5(256, 5, 2017);
  std::size_t moved = 0;
  for (std::size_t s = 0; s < 256; ++s)
    if (p4.chip_for(s) != p5.chip_for(s)) ++moved;
  // Consistent hashing moves ~1/5 of shards when a fifth chip joins;
  // naive mod-N would reshuffle ~4/5. Allow generous slack.
  EXPECT_LT(moved, 256u * 2 / 5);
  // Every shard that moved, moved onto the new chip.
  for (std::size_t s = 0; s < 256; ++s)
    if (p4.chip_for(s) != p5.chip_for(s)) EXPECT_EQ(p5.chip_for(s), 4u);
}

TEST(ClusterPlacement, OverridesAndFallbackRespectConstraints) {
  std::map<std::size_t, std::size_t> overrides{{3, 2}, {7, 0}};
  cluster::Placement p(16, 4, 1, overrides);
  EXPECT_EQ(p.chip_for(3), 2u);
  EXPECT_EQ(p.chip_for(7), 0u);
  p.move(3, 1);
  EXPECT_EQ(p.chip_for(3), 1u);
  // Fallback never lands on a disallowed chip.
  const std::vector<bool> allowed{false, true, true, false};
  for (std::size_t s = 0; s < 16; ++s) {
    const std::size_t c = p.fallback_chip(s, allowed);
    EXPECT_TRUE(allowed[c]) << "shard " << s << " -> chip " << c;
  }
}

TEST(ClusterPlacement, TenantHashingIsStable) {
  const std::size_t a = cluster::Placement::shard_of("tenant-a", 64);
  EXPECT_EQ(cluster::Placement::shard_of("tenant-a", 64), a);
  EXPECT_LT(a, 64u);
}

// -- Rebalancer --------------------------------------------------------------

TEST(ClusterRebalancer, MigratesTheHotShardToTheColdestChip) {
  cluster::RebalanceConfig cfg;
  cfg.interval = 1000;
  cfg.ewma_alpha = 1.0;  // No smoothing: decisions read this window only.
  cluster::Rebalancer rb(4, cfg);
  const std::vector<std::size_t> home{0, 0, 1, 2};
  const std::vector<bool> serving{true, true, true};
  const std::vector<bool> locked(4, false);
  rb.note_admitted(0, 600);  // Two warm shards crowd chip 0; moving the
  rb.note_admitted(1, 500);  // hotter one strictly shrinks the gap.
  rb.note_admitted(2, 50);
  rb.note_admitted(3, 40);
  const auto decisions = rb.tick(home, serving, locked);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].shard, 0u);
  EXPECT_EQ(decisions[0].from, 0u);
  EXPECT_EQ(decisions[0].to, 2u);  // Chip 2 is coldest (load 40).
  EXPECT_FALSE(decisions[0].evacuation);
}

TEST(ClusterRebalancer, CooldownBlocksPingPong) {
  cluster::RebalanceConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.cooldown_ticks = 2;
  cluster::Rebalancer rb(3, cfg);
  std::vector<std::size_t> home{0, 0, 1};
  const std::vector<bool> serving{true, true};
  const std::vector<bool> locked{false, false, true};  // Shard 2 pinned.
  rb.note_admitted(0, 800);
  rb.note_admitted(1, 100);
  auto first = rb.tick(home, serving, locked);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].shard, 0u);
  EXPECT_EQ(first[0].to, 1u);
  home[0] = first[0].to;
  // The load flips: the freshly moved shard would bounce straight back
  // were it not sitting out its cooldown.
  rb.note_admitted(0, 300);
  rb.note_admitted(2, 900);
  EXPECT_TRUE(rb.tick(home, serving, locked).empty());
  // One more tick retires the cooldown; now the beneficial move happens.
  rb.note_admitted(0, 300);
  rb.note_admitted(2, 900);
  const auto third = rb.tick(home, serving, locked);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].shard, 0u);
  EXPECT_EQ(third[0].to, 0u);
}

TEST(ClusterRebalancer, QuarantinedChipEvacuatesEvenWhenDisabled) {
  cluster::RebalanceConfig cfg;
  cfg.enabled = false;  // Static placement still evacuates dead chips.
  cluster::Rebalancer rb(4, cfg);
  const std::vector<std::size_t> home{0, 0, 1, 1};
  const std::vector<bool> serving{false, true};
  const std::vector<bool> locked(4, false);
  const auto decisions = rb.tick(home, serving, locked);
  ASSERT_EQ(decisions.size(), 2u);
  for (const auto& d : decisions) {
    EXPECT_TRUE(d.evacuation);
    EXPECT_EQ(d.from, 0u);
    EXPECT_EQ(d.to, 1u);
  }
}

// -- Single-chip degeneracy --------------------------------------------------

/// A 1-chip cluster must be byte-for-byte today's serve::Server: same
/// responses (ids, values, timestamps, energy) and same metrics.
TEST(ClusterServe, SingleChipBitExactVsServer) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    const serve_harness::Scenario s = serve_harness::random_scenario(seed);
    const serve_harness::Outcome server_out = serve_harness::run_scenario(s);

    ClusterScenario cs;
    cs.seed = seed;
    cs.tenants = s.tenants;
    cs.cluster.chips = 1;
    cs.cluster.server = s.server;
    const ClusterOutcome cluster_out = run_cluster_scenario(cs);

    serve_harness::Outcome as_outcome;
    as_outcome.trace = cluster_out.trace;
    for (const cluster::ClusterResponse& r : cluster_out.responses)
      as_outcome.responses.push_back(r.resp);
    ASSERT_EQ(cluster_out.snap.chips.size(), 1u);
    as_outcome.snap = cluster_out.snap.chips[0];

    EXPECT_EQ(serve_harness::diff_outcomes(server_out, as_outcome), "")
        << "seed " << seed;
    // And the edge layer charged nothing: no forwarding, no migration.
    EXPECT_EQ(cluster_out.snap.cross_chip_requests, 0u);
    EXPECT_EQ(cluster_out.snap.migrations, 0u);
    EXPECT_EQ(cluster_out.snap.interconnect_energy_pj, 0.0);
    for (const cluster::ClusterResponse& r : cluster_out.responses) {
      EXPECT_EQ(r.edge_completion, r.resp.completion);
      EXPECT_EQ(r.hops, 0u);
    }
  }
}

/// Same degeneracy with the health layer live and a mid-serve domain
/// kill: the cluster wrapper must not perturb fault events either.
TEST(ClusterServe, SingleChipBitExactUnderFaults) {
  serve_harness::Scenario s = serve_harness::random_scenario(74);
  s.server.health.enabled = true;
  serve::health::DomainFaultEvent kill;
  kill.at = 20000;
  kill.domain = 0;
  kill.kind = serve::health::DomainFaultEvent::Kind::kKill;
  s.server.health.fault_schedule = {kill};
  const serve_harness::Outcome server_out = serve_harness::run_scenario(s);

  ClusterScenario cs;
  cs.seed = s.seed;
  cs.tenants = s.tenants;
  cs.cluster.chips = 1;
  cs.cluster.server = s.server;
  const ClusterOutcome cluster_out = run_cluster_scenario(cs);

  serve_harness::Outcome as_outcome;
  as_outcome.trace = cluster_out.trace;
  for (const cluster::ClusterResponse& r : cluster_out.responses)
    as_outcome.responses.push_back(r.resp);
  as_outcome.snap = cluster_out.snap.chips[0];
  EXPECT_EQ(serve_harness::diff_outcomes(server_out, as_outcome), "");
}

/// Each chip is a serve::Server, so a zero-sized server config is refused
/// at construction in every build type.
TEST(ClusterServe, RejectsZeroSizedServerConfig) {
  cluster::ClusterConfig cfg;
  cfg.chips = 2;
  cfg.server.lanes_per_stream = 0;
  EXPECT_THROW(cluster::Cluster(cfg, {}), std::invalid_argument);
}

// -- Multi-chip serving ------------------------------------------------------

/// A skewed multi-chip scenario that exercises migration: one hot tenant
/// dominating a 4-chip cluster with frequent rebalance ticks.
[[nodiscard]] ClusterScenario skewed_scenario(std::uint64_t seed) {
  ClusterScenario cs;
  cs.seed = seed;
  cs.tenants = cluster_harness::zipf_tenants(8, 1.1, 40.0, 400);
  cs.cluster.chips = 4;
  cs.cluster.shards = 16;
  cs.cluster.rebalance.interval = 10000;
  cs.cluster.server.streams = 2;
  cs.cluster.server.lanes_per_stream = 8;
  cs.cluster.server.batch_window = 400;
  return cs;
}

TEST(ClusterServe, MultiChipConservesEveryRequest) {
  const ClusterOutcome out = run_cluster_scenario(skewed_scenario(5));
  EXPECT_EQ(cluster_harness::check_cluster_conservation(out), "");
  EXPECT_EQ(out.snap.chips.size(), 4u);
}

TEST(ClusterServe, SeedDeterminism) {
  const ClusterOutcome a = run_cluster_scenario(skewed_scenario(6));
  const ClusterOutcome b = run_cluster_scenario(skewed_scenario(6));
  EXPECT_EQ(cluster_harness::diff_cluster_outcomes(a, b), "");
}

/// One run per Cluster instance: the chips' clocks and counters would
/// carry over into a second run and skew every response, so run_trace
/// refuses it in every build type and leaves the first run's state as is.
TEST(ClusterServe, SecondRunTraceThrows) {
  ClusterScenario cs = skewed_scenario(8);
  cs.cluster.chips = 2;
  serve::QosTable table;
  for (const serve_harness::TenantSpec& t : cs.tenants) {
    table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
    cs.cluster.server.tenant_weights[t.name] = t.weight;
  }
  cluster::Cluster cl(cs.cluster, std::move(table));
  serve_harness::Scenario src;
  src.seed = cs.seed;
  src.tenants = cs.tenants;
  const std::vector<serve::Request> trace = serve_harness::merged_trace(src);
  ASSERT_EQ(cl.run_trace(trace).size(), trace.size());
  const cluster::ClusterSnapshot first = cl.snapshot();

  EXPECT_THROW((void)cl.run_trace(trace), std::logic_error);
  const cluster::ClusterSnapshot after = cl.snapshot();
  EXPECT_EQ(after.requests, first.requests);
  EXPECT_EQ(after.total_ops, first.total_ops);
  EXPECT_EQ(after.placement, first.placement);
}

/// Hot-shard migration races the in-flight work of the shard it moves:
/// requests already dispatched complete on the old chip, requests
/// arriving mid-move are held and forwarded, nothing is lost or served
/// twice, and the stale-view tail makes cross-chip traffic nonzero.
TEST(ClusterMigration, RacesInflightBatchesWithoutLosingRequests) {
  const ClusterOutcome out = run_cluster_scenario(skewed_scenario(7));
  EXPECT_EQ(cluster_harness::check_cluster_conservation(out), "");
  EXPECT_GE(out.snap.migrations, 1u);
  EXPECT_GT(out.snap.cross_chip_requests, 0u);
  EXPECT_GT(out.snap.interconnect_energy_pj, 0.0);
  EXPECT_GT(out.snap.held_requests, 0u);
  // Held requests still execute correctly: exact multiply values.
  std::size_t held_ok = 0;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    const cluster::ClusterResponse& r = out.responses[i];
    if (!r.held_by_migration ||
        r.resp.status != serve::RequestStatus::kOk) {
      continue;
    }
    ++held_ok;
    EXPECT_TRUE(r.cross_chip);
    EXPECT_GT(r.hops, 0u);
    const serve::Request& req = out.trace[i];
    if (req.op == serve::OpKind::kMultiply && r.resp.relax_bits == 0) {
      ASSERT_EQ(r.resp.values.size(), req.operands.size());
      for (std::size_t k = 0; k < req.operands.size(); ++k) {
        EXPECT_EQ(r.resp.values[k],
                  req.operands[k].first * req.operands[k].second);
      }
    }
  }
  EXPECT_GT(held_ok, 0u);
}

TEST(ClusterDeterminism, BitExactAcrossWorkerCounts) {
  ThreadCountGuard guard;
  util::set_thread_count(1);
  const ClusterOutcome reference = run_cluster_scenario(skewed_scenario(8));
  for (const std::size_t threads : {2u, 7u}) {
    util::set_thread_count(threads);
    const ClusterOutcome run = run_cluster_scenario(skewed_scenario(8));
    EXPECT_EQ(cluster_harness::diff_cluster_outcomes(reference, run), "")
        << threads << " threads";
  }
}

// -- Health composition ------------------------------------------------------

/// Every chip quarantined with no repair left: the cluster must still
/// finalize every request (total-failure shedding), not hang.
TEST(ClusterHealth, AllChipsQuarantinedShedsEverything) {
  ClusterScenario cs = skewed_scenario(9);
  cs.cluster.chips = 2;
  cs.cluster.server.health.enabled = true;
  cs.cluster.server.health.mode = serve::health::DegradeMode::kShed;
  cs.cluster.server.health.max_repair_attempts = 0;
  std::vector<serve::health::DomainFaultEvent> kills;
  for (std::size_t d = 0; d < cs.cluster.server.streams; ++d) {
    serve::health::DomainFaultEvent e;
    e.at = 1;  // Dead before any request lands.
    e.domain = d;
    e.kind = serve::health::DomainFaultEvent::Kind::kKill;
    kills.push_back(e);
  }
  cs.cluster.server.health.fault_schedule = kills;
  const ClusterOutcome out = run_cluster_scenario(cs);
  EXPECT_EQ(cluster_harness::check_cluster_conservation(out), "");
  std::size_t ok = 0;
  for (const cluster::ClusterResponse& r : out.responses)
    if (r.resp.status == serve::RequestStatus::kOk) ++ok;
  EXPECT_EQ(ok, 0u);
  EXPECT_GT(out.responses.size(), 0u);
}

/// One chip dies mid-serve: quarantine composes with placement — the
/// rebalancer evacuates every shard off the dead chip and later traffic
/// lands elsewhere.
TEST(ClusterHealth, QuarantinedChipEvacuatesThroughRebalancer) {
  ClusterScenario cs = skewed_scenario(10);
  cs.cluster.chips = 2;
  cs.cluster.server.health.enabled = true;
  cs.cluster.server.health.mode = serve::health::DegradeMode::kShed;
  cs.cluster.server.health.max_repair_attempts = 0;
  std::vector<serve::health::DomainFaultEvent> kills;
  for (std::size_t d = 0; d < cs.cluster.server.streams; ++d) {
    serve::health::DomainFaultEvent e;
    e.at = 15000;
    e.domain = d;
    e.kind = serve::health::DomainFaultEvent::Kind::kKill;
    kills.push_back(e);
  }
  cs.cluster.chip_fault_schedules[0] = kills;  // Chip 0 only.
  const ClusterOutcome out = run_cluster_scenario(cs);
  EXPECT_EQ(cluster_harness::check_cluster_conservation(out), "");
  EXPECT_GE(out.snap.evacuations, 1u);
  // Final placement holds nothing on the dead chip.
  for (std::size_t s = 0; s < out.snap.placement.size(); ++s)
    EXPECT_NE(out.snap.placement[s], 0u) << "shard " << s;
  // The survivor still completed work after the evacuations.
  EXPECT_GT(out.snap.chips[1].completed, 0u);
}

}  // namespace
}  // namespace apim
