// Runtime trace verifier tests (analysis/trace_check.hpp).
//
// Three layers, golden-diagnostic style like tests/isa_lint_test.cpp:
//  * clean traces — real serve / chaos / cluster runs captured through the
//    opt-in event stream must verify with ZERO findings (no false
//    positives), and attaching the stream must not change a single served
//    byte (tracing is observational);
//  * seeded mutations — every trace-check rule id is proven to have teeth
//    by corrupting a real (or forged) log in exactly the way the rule
//    exists to catch, and asserting that rule fires;
//  * serialization — the apim-trace v1 text form round-trips bit-exactly
//    and re-verifies identically, so tools/apim_trace_lint sees what the
//    engine saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_check.hpp"
#include "cluster_harness.hpp"
#include "serve_chaos_harness.hpp"
#include "serve_harness.hpp"
#include "serve/trace.hpp"

namespace {

using namespace apim;
using analysis::Report;
using cluster_harness::ClusterScenario;
using serve::trace::Event;
using serve::trace::EventKind;
using serve::trace::EventLog;
using serve_harness::Scenario;
using serve_harness::TenantSpec;

// -- Shared fixtures ---------------------------------------------------------

/// Multi-tenant serving scenario tuned to exercise every serve-side event:
/// weighted DRR contention (grants/spends), tight deadlines (expiry at
/// dispatch + credit refunds), a small reject-mode queue (admission bounds
/// and rejections) and QoS relax levels (escalation arcs).
Scenario serve_scenario() {
  Scenario s;
  s.seed = 11;
  TenantSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 3;
  heavy.rate_per_kcycle = 18.0;
  heavy.requests = 90;
  heavy.min_ops = 2;
  heavy.max_ops = 8;
  heavy.width = 12;
  heavy.relax_bits = 2;
  TenantSpec urgent;
  urgent.name = "urgent";
  urgent.weight = 1;
  urgent.rate_per_kcycle = 14.0;
  urgent.requests = 70;
  urgent.min_ops = 1;
  urgent.max_ops = 6;
  urgent.width = 10;
  // Tighter than the 400-cycle batch window: a window-sealed batch's
  // earliest member is already past deadline at dispatch, so every run
  // exercises the expiry + credit-refund path.
  urgent.deadline = 350;
  TenantSpec mixed;
  mixed.name = "mixed";
  mixed.weight = 2;
  mixed.rate_per_kcycle = 8.0;
  mixed.requests = 50;
  mixed.width = 14;
  mixed.add_fraction = 0.5;
  s.tenants = {heavy, urgent, mixed};
  s.server.streams = 2;
  s.server.lanes_per_stream = 8;
  s.server.batch_window = 400;
  s.server.dispatch_cycles = 64;
  s.server.queue_capacity = 24;  // Small enough to reject under burst.
  s.server.admission = serve::AdmissionPolicy::kReject;
  return s;
}

/// Chaos scenario: ambient decay plus a mid-serve whole-domain kill with
/// the health layer on — exercises health transitions, scrubs, offline
/// repairs, aborts and relocations.
serve_harness::ChaosSpec chaos_spec() {
  serve_harness::ChaosSpec spec;
  spec.scenario = serve_scenario();
  spec.scenario.server.streams = 3;
  spec.scenario.server.queue_capacity = 64;
  spec.scenario.server.health.scrub_interval = 8000;
  spec.scenario.server.health.repair_interval = 12000;
  spec.stuck_rate = 0.002;
  // Arrivals finish within ~6 kcycles; the kill must land while batches
  // are still in flight for the abort + relocate arcs to appear.
  spec.kill_at = 3000;
  spec.kill_domain = 1;
  return spec;
}

/// Skewed 4-chip cluster with frequent rebalance ticks: guaranteed
/// cross-chip forwards, response legs and at least one migration.
ClusterScenario cluster_scenario() {
  ClusterScenario cs;
  cs.seed = 7;
  cs.tenants = cluster_harness::zipf_tenants(8, 1.1, 40.0, 400);
  cs.cluster.chips = 4;
  cs.cluster.shards = 16;
  cs.cluster.rebalance.interval = 10000;
  cs.cluster.server.streams = 2;
  cs.cluster.server.lanes_per_stream = 8;
  cs.cluster.server.batch_window = 400;
  return cs;
}

EventLog capture_serve(const Scenario& base) {
  auto log = std::make_unique<EventLog>();
  Scenario s = base;
  s.server.trace = log.get();
  (void)serve_harness::run_scenario(s);
  return std::move(*log);
}

EventLog capture_chaos() {
  auto log = std::make_unique<EventLog>();
  serve_harness::ChaosSpec spec = chaos_spec();
  spec.scenario.server.trace = log.get();
  (void)serve_harness::run_chaos(spec, /*health_enabled=*/true);
  return std::move(*log);
}

EventLog capture_cluster() {
  auto log = std::make_unique<EventLog>();
  ClusterScenario cs = cluster_scenario();
  cs.cluster.trace = log.get();
  (void)cluster_harness::run_cluster_scenario(cs);
  return std::move(*log);
}

std::size_t count_rule(const Report& r, const std::string& rule) {
  std::size_t n = 0;
  for (const analysis::Diagnostic& d : r.diagnostics())
    if (d.rule == rule) ++n;
  return n;
}

/// The mutation contract: the corrupted log must produce at least one
/// finding under exactly the intended rule.
void expect_rule(const EventLog& log, const std::string& rule) {
  const Report r = analysis::check_serving_trace(log);
  EXPECT_GE(count_rule(r, rule), 1u)
      << "expected rule '" << rule << "', got:\n"
      << r.format();
}

std::size_t count_kind(const EventLog& log, EventKind kind) {
  std::size_t n = 0;
  for (const Event& e : log.events())
    if (e.kind == kind) ++n;
  return n;
}

/// Index of the n-th event of `kind` (asserts it exists).
std::size_t find_kind(const EventLog& log, EventKind kind,
                      std::size_t nth = 0) {
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    if (log.events()[i].kind != kind) continue;
    if (nth == 0) return i;
    --nth;
  }
  ADD_FAILURE() << "trace has no event of kind "
                << serve::trace::to_string(kind);
  return 0;
}

// -- Clean traces: zero false positives --------------------------------------

TEST(TraceCheck, CleanServingTraceVerifies) {
  const EventLog log = capture_serve(serve_scenario());
  ASSERT_FALSE(log.overflowed());
  // The scenario must exercise the full serve-side event vocabulary, or
  // the "clean" result proves nothing.
  EXPECT_GT(count_kind(log, EventKind::kAdmit), 0u);
  EXPECT_GT(count_kind(log, EventKind::kBatchSeal), 0u);
  EXPECT_GT(count_kind(log, EventKind::kDispatch), 0u);
  EXPECT_GT(count_kind(log, EventKind::kComplete), 0u);
  EXPECT_GT(count_kind(log, EventKind::kServe), 0u);
  EXPECT_GT(count_kind(log, EventKind::kExpire), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditGrant), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditSpend), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditRefund), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
  EXPECT_EQ(analysis::verify_trace(log), "");
}

TEST(TraceCheck, CleanChaosTraceVerifies) {
  const EventLog log = capture_chaos();
  ASSERT_FALSE(log.overflowed());
  EXPECT_GT(count_kind(log, EventKind::kHealth), 0u);
  EXPECT_GT(count_kind(log, EventKind::kScrub), 0u);
  EXPECT_GT(count_kind(log, EventKind::kAbort), 0u);
  EXPECT_GT(count_kind(log, EventKind::kRelocate), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
}

TEST(TraceCheck, CleanClusterTraceVerifies) {
  const EventLog log = capture_cluster();
  ASSERT_FALSE(log.overflowed());
  EXPECT_GT(count_kind(log, EventKind::kClusterAdmit), 0u);
  EXPECT_GT(count_kind(log, EventKind::kForward), 0u);
  EXPECT_GT(count_kind(log, EventKind::kResponseLeg), 0u);
  EXPECT_GT(count_kind(log, EventKind::kMigrationStart), 0u);
  EXPECT_GT(count_kind(log, EventKind::kMigrationCommit), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
}

// Attaching the event stream must not perturb the engine: every response
// byte and every snapshot-visible statistic is identical with and without
// the log (tracing is strictly observational).
TEST(TraceCheck, TracingIsObservational) {
  const serve_harness::Outcome plain =
      serve_harness::run_scenario(serve_scenario());
  EventLog log;
  Scenario traced_s = serve_scenario();
  traced_s.server.trace = &log;
  const serve_harness::Outcome traced =
      serve_harness::run_scenario(traced_s);
  EXPECT_EQ(serve_harness::diff_outcomes(plain, traced), "");
  EXPECT_GT(log.events().size(), 0u);

  const cluster_harness::ClusterOutcome cplain =
      cluster_harness::run_cluster_scenario(cluster_scenario());
  EventLog clog;
  ClusterScenario traced_cs = cluster_scenario();
  traced_cs.cluster.trace = &clog;
  const cluster_harness::ClusterOutcome ctraced =
      cluster_harness::run_cluster_scenario(traced_cs);
  EXPECT_EQ(cluster_harness::diff_cluster_outcomes(cplain, ctraced), "");
  EXPECT_GT(clog.events().size(), 0u);
}

// -- Seeded mutations: every rule has teeth ----------------------------------

TEST(TraceCheckMutation, DroppedServeBreaksConservation) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kServe);
  log.events().erase(log.events().begin() + static_cast<std::ptrdiff_t>(i));
  expect_rule(log, "request-conservation");
}

TEST(TraceCheckMutation, DuplicatedServeBreaksConservation) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kServe);
  // Insert the duplicate in place so the clock stays monotone: the only
  // broken invariant is the second terminal.
  log.events().insert(log.events().begin() + static_cast<std::ptrdiff_t>(i),
                      log.events()[i]);
  expect_rule(log, "request-conservation");
}

TEST(TraceCheckMutation, DroppedDispatchBreaksCausality) {
  EventLog log = capture_serve(serve_scenario());
  // Drop a dispatch that actually carries members (not a scrub pass).
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const Event& e = log.events()[i];
    if (e.kind == EventKind::kDispatch && !e.members.empty()) {
      log.events().erase(log.events().begin() +
                         static_cast<std::ptrdiff_t>(i));
      expect_rule(log, "request-causality");
      return;
    }
  }
  FAIL() << "trace has no member-carrying dispatch";
}

TEST(TraceCheckMutation, DoubleRefundBreaksCreditLedger) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kCreditRefund);
  // Apply the refund twice: the second application's declared deficit no
  // longer matches the replayed ledger.
  log.events().insert(log.events().begin() + static_cast<std::ptrdiff_t>(i),
                      log.events()[i]);
  expect_rule(log, "drr-credit");
}

TEST(TraceCheckMutation, InflatedSpendBreaksCreditLedger) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kCreditSpend);
  Event& e = log.events()[i];
  e.amount += e.deficit_after + 1;  // Spend more than was ever granted.
  expect_rule(log, "drr-credit");
}

TEST(TraceCheckMutation, TamperedSealWidthBreaksHomogeneity) {
  EventLog log = capture_serve(serve_scenario());
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    Event& e = log.events()[i];
    if (e.kind == EventKind::kBatchSeal && !e.members.empty()) {
      e.width += 1;
      expect_rule(log, "batch-homogeneity");
      return;
    }
  }
  FAIL() << "trace has no member-carrying batch seal";
}

TEST(TraceCheckMutation, OverAdmissionBreaksAdmissionBound) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kAdmit);
  Event& e = log.events()[i];
  ASSERT_GT(e.capacity, 0u);
  e.queue_depth = e.capacity + 1;
  expect_rule(log, "admission-bound");
}

TEST(TraceCheckMutation, BackdatedEventBreaksClockMonotonicity) {
  EventLog log = capture_serve(serve_scenario());
  // Backdate the last dispatch to before the first event on its chip.
  const std::size_t last =
      find_kind(log, EventKind::kDispatch,
                count_kind(log, EventKind::kDispatch) - 1);
  ASSERT_GT(log.events()[last].at, 0u);
  log.events()[last].at = 0;
  expect_rule(log, "clock-regression");
}

TEST(TraceCheckMutation, DuplicatedDispatchOverlapsStream) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kDispatch);
  Event dup = log.events()[i];
  dup.members.clear();  // Keep the causality FSM out of the blast radius.
  log.events().insert(
      log.events().begin() + static_cast<std::ptrdiff_t>(i) + 1,
      std::move(dup));
  expect_rule(log, "stream-overlap");
}

TEST(TraceCheckMutation, IllegalHealthJumpBreaksFsm) {
  EventLog log = capture_chaos();
  // Forge a quarantined -> suspect transition (no such arc: repair
  // readmits to healthy) right after a domain quarantines.
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const Event& e = log.events()[i];
    if (e.kind != EventKind::kHealth || e.state_to != 2) continue;
    Event forged = e;
    forged.state_from = 2;
    forged.state_to = 1;
    log.events().insert(
        log.events().begin() + static_cast<std::ptrdiff_t>(i) + 1,
        std::move(forged));
    expect_rule(log, "health-fsm");
    return;
  }
  FAIL() << "chaos trace never quarantined a domain";
}

TEST(TraceCheckMutation, DispatchOnQuarantinedDomainBreaksFsm) {
  EventLog log = capture_chaos();
  // Replay the health transitions to find a domain that ENDS quarantined
  // (the killed domain never repairs), then forge a dispatch onto it at
  // the end of the trace — monotone clock, free stream, only the health
  // rule is broken.
  std::map<std::int64_t, std::uint8_t> final_state;
  util::Cycles last_at = 0;
  for (const Event& e : log.events()) {
    last_at = std::max(last_at, e.at);
    if (e.kind == EventKind::kHealth) final_state[e.domain] = e.state_to;
  }
  for (const auto& [domain, state] : final_state) {
    if (state != 2) continue;
    Event forged;
    forged.kind = EventKind::kDispatch;
    forged.at = last_at;
    forged.app = "heavy";
    forged.domain = domain;
    forged.ops = 4;
    log.events().push_back(std::move(forged));
    expect_rule(log, "health-fsm");
    return;
  }
  FAIL() << "chaos trace left no domain quarantined";
}

TEST(TraceCheckMutation, UnderchargedForwardHopBreaksInterconnect) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kForward);
  ASSERT_GT(log.events()[i].cycles, 0u);
  log.events()[i].cycles -= 1;  // One cycle short of the cost law.
  expect_rule(log, "interconnect-charge");
}

TEST(TraceCheckMutation, UnderchargedResponseEnergyBreaksInterconnect) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kResponseLeg);
  log.events()[i].energy_pj *= 0.5;
  expect_rule(log, "interconnect-charge");
}

TEST(TraceCheckMutation, ReorderedSameInstantCommitsBreakCommitOrder) {
  // Forged cluster log: two migrations commit at the same instant in
  // DESCENDING shard order — the loop contract says shard-ascending.
  EventLog log;
  log.meta.chips = 4;
  log.meta.shards = 8;
  log.meta.hop_latency_cycles = 8;
  log.meta.link_bits = 64;
  log.meta.pj_per_bit_hop = 0.1;
  log.meta.shard_bits = 1u << 10;
  const auto leg = [&](EventKind kind, util::Cycles at, std::int64_t shard,
                       std::int64_t from, std::int64_t to) {
    Event e;
    e.kind = kind;
    e.at = at;
    e.chip = -1;
    e.shard = shard;
    e.from = from;
    e.to = to;
    e.hops = from == to ? 0 : 2;
    e.bits = log.meta.shard_bits;
    e.cycles = e.hops * (8 + (e.bits + 63) / 64);
    if (kind == EventKind::kMigrationCommit)
      e.energy_pj = static_cast<double>(e.hops) *
                    static_cast<double>(e.bits) * 0.1;
    log.record(std::move(e));
  };
  leg(EventKind::kMigrationStart, 100, /*shard=*/5, 0, 1);
  leg(EventKind::kMigrationStart, 100, /*shard=*/2, 0, 2);
  leg(EventKind::kMigrationCommit, 500, /*shard=*/5, 0, 1);
  leg(EventKind::kMigrationCommit, 500, /*shard=*/2, 0, 2);  // Out of order.
  expect_rule(log, "commit-order");
}

TEST(TraceCheckMutation, ShareBoundCatchesForgedOverAllocation) {
  // Forged DRR log on a 2-stream server, tenants a and b at equal weight
  // (cap = 1 stream each while both contend). Tenant a legally takes
  // stream 0, then takes stream 1 while b still has queued work under
  // cap — the weighted-share bound the scheduler would never violate.
  EventLog log;
  log.meta.streams = 2;
  log.meta.lanes = 8;
  log.meta.queue_capacity = 64;
  log.meta.fair_share = true;
  log.meta.quantum_ops = 8;
  log.meta.default_weight = 1;
  const auto credit = [&](EventKind kind, util::Cycles at,
                          const std::string& app, std::uint64_t amount,
                          std::uint64_t after, bool idle) {
    Event e;
    e.kind = kind;
    e.at = at;
    e.app = app;
    e.amount = amount;
    e.deficit_after = after;
    e.idle_reset = idle;
    log.record(std::move(e));
  };
  const auto seal = [&](util::Cycles at, const std::string& app) {
    Event e;
    e.kind = EventKind::kBatchSeal;
    e.at = at;
    e.app = app;
    e.ops = 8;
    log.record(std::move(e));
  };
  const auto dispatch = [&](util::Cycles at, const std::string& app,
                            std::int64_t domain) {
    Event e;
    e.kind = EventKind::kDispatch;
    e.at = at;
    e.app = app;
    e.domain = domain;
    e.ops = 8;
    log.record(std::move(e));
  };
  seal(100, "a");
  seal(100, "a");
  seal(100, "b");
  credit(EventKind::kCreditGrant, 100, "a", 8, 8, false);
  credit(EventKind::kCreditSpend, 100, "a", 8, 0, false);
  dispatch(100, "a", 0);  // Legal: a's first stream.
  credit(EventKind::kCreditGrant, 100, "a", 8, 8, false);
  credit(EventKind::kCreditSpend, 100, "a", 8, 0, true);
  dispatch(100, "a", 1);  // Violation: b queued under cap, a over cap.
  const Report r = analysis::check_serving_trace(log);
  EXPECT_EQ(count_rule(r, "drr-share-bound"), 1u) << r.format();
  EXPECT_EQ(r.diagnostics().size(), 1u) << r.format();
}

TEST(TraceCheckMutation, OverflowedLogIsUnsound) {
  EventLog log(/*capacity=*/16);
  Scenario s = serve_scenario();
  s.server.trace = &log;
  (void)serve_harness::run_scenario(s);
  ASSERT_TRUE(log.overflowed());
  expect_rule(log, "trace-overflow");
}

// -- Serialization round-trip -------------------------------------------------

TEST(TraceSerialization, ChaosTraceRoundTripsBitExactly) {
  const EventLog log = capture_chaos();
  const std::string text = log.serialize();
  EventLog parsed;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), log.events().size());
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_EQ(analysis::verify_trace(parsed), "");
}

TEST(TraceSerialization, ClusterTraceRoundTripsBitExactly) {
  const EventLog log = capture_cluster();
  const std::string text = log.serialize();
  EventLog parsed;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), log.events().size());
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_EQ(analysis::verify_trace(parsed), "");
  // The header round-trips too: the verifier's recomputed interconnect
  // charges depend on it.
  EXPECT_EQ(parsed.meta.chips, log.meta.chips);
  EXPECT_EQ(parsed.meta.hop_latency_cycles, log.meta.hop_latency_cycles);
  EXPECT_EQ(parsed.meta.link_bits, log.meta.link_bits);
  EXPECT_EQ(parsed.meta.pj_per_bit_hop, log.meta.pj_per_bit_hop);
}

TEST(TraceSerialization, ParseRejectsMalformedDocuments) {
  EventLog out;
  std::string error;
  EXPECT_FALSE(EventLog::parse("not a trace\n", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      EventLog::parse("apim-trace v1\nevent k=no-such-kind t=0\n", &out,
                      &error));
  EXPECT_FALSE(EventLog::parse("apim-trace v1\nevent k=admit t=0 zz=1\n",
                               &out, &error));
  // The interconnect is a star: the header has no topology key.
  EXPECT_FALSE(EventLog::parse("apim-trace v1\nmeta topology=0\n", &out,
                               &error));
  EXPECT_EQ(error, "line 2: unknown meta key 'topology'");

  // Numbers: the whole token, no sign on an unsigned field, and a value
  // that fits the field (op, policy, state_from and state_to are 8-bit,
  // chip is 32-bit). Each of these once parsed silently.
  const struct {
    const char* record;
    const char* error;
  } bad_numbers[] = {
      {"event k=admit t=xyz", "line 2: bad value 'xyz' for key 't'"},
      {"event k=admit t=0 req=12abc",
       "line 2: bad value '12abc' for key 'req'"},
      {"event k=admit t=-1", "line 2: bad value '-1' for key 't'"},
      {"event k=admit t=0 op=300", "line 2: bad value '300' for key 'op'"},
      {"event k=admit t=0 policy=256",
       "line 2: bad value '256' for key 'policy'"},
      {"event k=health t=0 state_from=256",
       "line 2: bad value '256' for key 'state_from'"},
      {"event k=health t=0 state_to=-1",
       "line 2: bad value '-1' for key 'state_to'"},
      {"event k=admit t=0 chip=4294967296",
       "line 2: bad value '4294967296' for key 'chip'"},
      {"event k=admit t=0 width=99999999999",
       "line 2: bad value '99999999999' for key 'width'"},
      {"event k=dispatch t=0 members=1,,2",
       "line 2: bad value '1,,2' for key 'members'"},
      {"event k=dispatch t=0 members=1,2,",
       "line 2: bad value '1,2,' for key 'members'"},
      {"event k=forward t=0 pj=1.5x",
       "line 2: bad value '1.5x' for key 'pj'"},
      {"meta streams=abc", "line 2: bad value 'abc' for key 'streams'"},
      {"meta chips=-4", "line 2: bad value '-4' for key 'chips'"},
      {"weight app=a w=+3", "line 2: bad value '+3' for key 'w'"},
  };
  for (const auto& c : bad_numbers) {
    error.clear();
    EXPECT_FALSE(EventLog::parse(std::string("apim-trace v1\n") + c.record +
                                     "\n",
                                 &out, &error))
        << c.record;
    EXPECT_EQ(error, c.error) << c.record;
  }
}

TEST(TraceSerialization, EveryEventFieldRoundTrips) {
  EventLog log;
  Event e;
  e.kind = EventKind::kDispatch;
  e.at = 18446744073709551615ull;
  e.chip = 2147483647;
  e.req = -9;
  e.app = "tenant";
  e.domain = 3;
  e.op = 255;
  e.width = 4294967295u;
  e.relax = 7;
  e.policy = 3;
  e.ops = 12;
  e.members = {0, 5, 18446744073709551615ull};
  e.amount = 4;
  e.deficit_after = 5;
  e.idle_reset = true;
  e.queue_depth = 6;
  e.capacity = 7;
  e.state_from = 1;
  e.state_to = 2;
  e.dead = true;
  e.clean = true;
  e.offline = true;
  e.stuck = 8;
  e.repaired = 9;
  e.detections = 10;
  e.escalations = 11;
  e.scrub = true;
  e.from = 0;
  e.to = 1;
  e.hops = 2;
  e.bits = 256;
  e.cycles = 30;
  e.energy_pj = 0.1;
  e.shard = 63;
  log.record(e);
  const std::string text = log.serialize();
  EventLog parsed;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), 1u);
  const Event& p = parsed.events()[0];
  EXPECT_EQ(p.kind, e.kind);
  EXPECT_EQ(p.at, e.at);
  EXPECT_EQ(p.chip, e.chip);
  EXPECT_EQ(p.req, e.req);
  EXPECT_EQ(p.app, e.app);
  EXPECT_EQ(p.domain, e.domain);
  EXPECT_EQ(p.op, e.op);
  EXPECT_EQ(p.width, e.width);
  EXPECT_EQ(p.relax, e.relax);
  EXPECT_EQ(p.policy, e.policy);
  EXPECT_EQ(p.ops, e.ops);
  EXPECT_EQ(p.members, e.members);
  EXPECT_EQ(p.amount, e.amount);
  EXPECT_EQ(p.deficit_after, e.deficit_after);
  EXPECT_EQ(p.idle_reset, e.idle_reset);
  EXPECT_EQ(p.queue_depth, e.queue_depth);
  EXPECT_EQ(p.capacity, e.capacity);
  EXPECT_EQ(p.state_from, e.state_from);
  EXPECT_EQ(p.state_to, e.state_to);
  EXPECT_EQ(p.dead, e.dead);
  EXPECT_EQ(p.clean, e.clean);
  EXPECT_EQ(p.offline, e.offline);
  EXPECT_EQ(p.stuck, e.stuck);
  EXPECT_EQ(p.repaired, e.repaired);
  EXPECT_EQ(p.detections, e.detections);
  EXPECT_EQ(p.escalations, e.escalations);
  EXPECT_EQ(p.scrub, e.scrub);
  EXPECT_EQ(p.from, e.from);
  EXPECT_EQ(p.to, e.to);
  EXPECT_EQ(p.hops, e.hops);
  EXPECT_EQ(p.bits, e.bits);
  EXPECT_EQ(p.cycles, e.cycles);
  EXPECT_EQ(p.energy_pj, e.energy_pj);
  EXPECT_EQ(p.shard, e.shard);
  EXPECT_EQ(parsed.serialize(), text);
}

}  // namespace
