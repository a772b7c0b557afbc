// Serving-runtime tests: determinism across host worker counts, deadline
// expiry, admission backpressure, batcher shape rules, QoS escalation,
// metrics-snapshot consistency, config validation and the request
// lifecycle.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/apim.hpp"
#include "core/chip.hpp"
#include "core/tuner.hpp"
#include "quality/qos.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/health.hpp"
#include "serve/load_gen.hpp"
#include "serve/qos_table.hpp"
#include "serve/server.hpp"
#include "snapshot_digest.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;
using serve::AdmissionPolicy;
using serve::BatchKey;
using serve::DynamicBatcher;
using serve::MetricsSnapshot;
using serve::OpKind;
using serve::QosTable;
using serve::QosTableEntry;
using serve::Request;
using serve::RequestStatus;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

Request make_request(std::string app, OpKind op, unsigned width,
                     std::initializer_list<std::pair<std::uint64_t,
                                                     std::uint64_t>> ops,
                     util::Cycles arrival = 0, util::Cycles deadline = 0) {
  Request r;
  r.app = std::move(app);
  r.op = op;
  r.width = width;
  r.operands.assign(ops.begin(), ops.end());
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

/// A mixed, batching-heavy trace driven through a fresh server; used by the
/// determinism and metrics tests. Manual QoS table (no tuner) keeps it fast.
struct TraceRun {
  std::vector<Response> responses;
  MetricsSnapshot snap;
};

TraceRun run_reference_trace(reliability::ReliabilityPolicy policy) {
  serve::LoadGenConfig gen;
  gen.requests = 160;
  gen.rate_per_kcycle = 24.0;  // Hot enough to queue and coalesce.
  gen.seed = 99;
  gen.apps = {"tenant-a", "tenant-b"};
  gen.min_ops = 2;
  gen.max_ops = 10;
  gen.width = 32;
  gen.add_fraction = 0.25;
  gen.policy = policy;

  QosTable table;
  table.set("tenant-a", QosTableEntry{8, 0.0, true, false});
  table.set("tenant-b", QosTableEntry{4, 0.0, true, false});

  ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 16;
  cfg.batch_window = 800;
  cfg.dispatch_cycles = 64;

  Server server(cfg, table);
  TraceRun run;
  run.responses = server.run_trace(serve::make_open_loop_trace(gen));
  run.snap = server.snapshot();
  return run;
}

void expect_identical(const Response& a, const Response& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.relax_bits, b.relax_bits);
  EXPECT_EQ(a.escalated, b.escalated);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.dispatch, b.dispatch);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.batch_requests, b.batch_requests);
  EXPECT_EQ(a.energy_pj, b.energy_pj);  // Bit-exact, not approximate.
  EXPECT_EQ(a.qos.loss, b.qos.loss);
  EXPECT_EQ(a.qos.acceptable, b.qos.acceptable);
}

void expect_identical(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batched_ops, b.batched_ops);
  EXPECT_EQ(a.max_batch_requests, b.max_batch_requests);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.span_cycles, b.span_cycles);
  EXPECT_EQ(a.p50_latency_cycles, b.p50_latency_cycles);
  EXPECT_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.lane_occupancy, b.lane_occupancy);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.device_stats.cycles, b.device_stats.cycles);
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// -- Determinism across host worker counts ----------------------------------

TEST(ServeDeterminism, BitExactAcrossWorkerCounts) {
  ThreadCountGuard guard;
  util::set_thread_count(1);
  const TraceRun reference =
      run_reference_trace(reliability::ReliabilityPolicy::kOff);
  ASSERT_EQ(reference.responses.size(), 160u);

  for (const std::size_t threads : {2u, 7u}) {
    util::set_thread_count(threads);
    const TraceRun run =
        run_reference_trace(reliability::ReliabilityPolicy::kOff);
    ASSERT_EQ(run.responses.size(), reference.responses.size());
    for (std::size_t i = 0; i < run.responses.size(); ++i)
      expect_identical(reference.responses[i], run.responses[i]);
    expect_identical(reference.snap, run.snap);
  }
}

TEST(ServeDeterminism, HoldsUnderReliabilityPolicy) {
  ThreadCountGuard guard;
  util::set_thread_count(1);
  const TraceRun reference =
      run_reference_trace(reliability::ReliabilityPolicy::kDetectAndRepair);
  util::set_thread_count(7);
  const TraceRun run =
      run_reference_trace(reliability::ReliabilityPolicy::kDetectAndRepair);
  ASSERT_EQ(run.responses.size(), reference.responses.size());
  for (std::size_t i = 0; i < run.responses.size(); ++i)
    expect_identical(reference.responses[i], run.responses[i]);
  expect_identical(reference.snap, run.snap);
}

// -- Correctness of served values -------------------------------------------

TEST(ServeExecution, ExactValuesMatchHostArithmetic) {
  ServerConfig cfg;
  cfg.batch_window = 100;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 32, {{6, 7}, {1000, 1000}}),
       make_request("", OpKind::kVectorAdd, 32, {{40, 2}, {123, 456}})});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kOk);
  EXPECT_EQ(responses[0].values, (std::vector<std::uint64_t>{42, 1000000}));
  EXPECT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_EQ(responses[1].values, (std::vector<std::uint64_t>{42, 579}));
  EXPECT_TRUE(responses[0].qos.acceptable);
  EXPECT_EQ(responses[0].relax_bits, 0u);  // Unknown app -> exact fallback.
}

TEST(ServeExecution, InvalidRequestsAreFlagged) {
  Server server(ServerConfig{}, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 2, {{1, 2}}),   // Bad width.
       make_request("", OpKind::kMultiply, 32, {})});      // No operands.
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kInvalid);
  EXPECT_EQ(responses[1].status, RequestStatus::kInvalid);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.invalid, 2u);
  EXPECT_EQ(snap.completed, 0u);
}

// -- Batcher shape compatibility --------------------------------------------

TEST(ServeBatching, SameShapeCoalescesIntoOneDispatch) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 10)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].batch_requests, 2u);
  EXPECT_EQ(responses[1].batch_requests, 2u);
  EXPECT_EQ(responses[0].dispatch, responses[1].dispatch);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.batches, 1u);
}

TEST(ServeBatching, DifferentShapesStaySeparate) {
  ServerConfig cfg;
  cfg.batch_window = 500;

  // Different widths.
  {
    Server server(cfg, {});
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("", OpKind::kMultiply, 24, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
    EXPECT_EQ(server.snapshot().batches, 2u);
  }
  // Different op kinds.
  {
    Server server(cfg, {});
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("", OpKind::kVectorAdd, 16, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
  // Different reliability policies.
  {
    Server server(cfg, {});
    Request protected_req = make_request("", OpKind::kMultiply, 16, {{3, 4}});
    protected_req.policy = reliability::ReliabilityPolicy::kTripleVote;
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         std::move(protected_req)});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
  // Different relax levels (via per-app table entries).
  {
    QosTable table;
    table.set("approx", QosTableEntry{8, 0.0, true, false});
    Server server(cfg, table);
    auto r = server.run_trace(
        {make_request("exactly", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("approx", OpKind::kMultiply, 16, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
}

TEST(ServeBatching, WindowZeroDispatchesSingletons) {
  ServerConfig cfg;
  cfg.batch_window = 0;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 0)});
  EXPECT_EQ(responses[0].batch_requests, 1u);
  EXPECT_EQ(responses[1].batch_requests, 1u);
  EXPECT_EQ(server.snapshot().batches, 2u);
}

TEST(DynamicBatcher, SizeTriggerAndOverflow) {
  DynamicBatcher batcher(/*window=*/100, /*max_ops=*/4);
  const BatchKey key{OpKind::kMultiply, 16, 0,
                     reliability::ReliabilityPolicy::kOff};
  EXPECT_FALSE(batcher.add(0, key, 1, 0).has_value());
  EXPECT_FALSE(batcher.add(1, key, 1, 5).has_value());
  EXPECT_EQ(batcher.pending_requests(), 2u);
  // Window anchored at first member.
  ASSERT_TRUE(batcher.next_close().has_value());
  EXPECT_EQ(*batcher.next_close(), 100u);

  // Fourth op reaches the budget: closes with all four members.
  EXPECT_FALSE(batcher.add(2, key, 1, 6).has_value());
  const auto closed = batcher.add(3, key, 1, 7);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->members,
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(batcher.pending_requests(), 0u);

  // Overflow: 3 + 2 > 4 seals the open batch, the newcomer starts fresh.
  EXPECT_FALSE(batcher.add(10, key, 3, 20).has_value());
  const auto sealed = batcher.add(11, key, 2, 21);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->members, (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(batcher.pending_requests(), 1u);

  // An oversized request ships alone immediately.
  const auto jumbo = batcher.add(12, key, 9, 22);
  ASSERT_TRUE(jumbo.has_value());
  EXPECT_EQ(jumbo->members, (std::vector<std::uint64_t>{12}));
}

// -- Deadlines ---------------------------------------------------------------

TEST(ServeDeadlines, ExpiresUndispatchedRequests) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0, /*deadline=*/100),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 0)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kExpired);
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_EQ(responses[1].batch_requests, 1u);  // The expired one dropped out.
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST(ServeDeadlines, GenerousDeadlineMakesIt) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0,
                    /*deadline=*/100000)});
  EXPECT_EQ(responses[0].status, RequestStatus::kOk);
}

// -- Admission control --------------------------------------------------------

TEST(ServeAdmission, RejectPolicyShedsLoadAtCapacity) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.batch_window = 1000;
  Server server(cfg, {});

  std::vector<Request> burst;
  for (int i = 0; i < 6; ++i)
    burst.push_back(make_request("", OpKind::kMultiply, 16,
                                 {{std::uint64_t(i), 2}}, 0));
  auto responses = server.run_trace(std::move(burst));

  int ok = 0, rejected = 0;
  for (const Response& r : responses) {
    ok += r.status == RequestStatus::kOk;
    rejected += r.status == RequestStatus::kRejected;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 4);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.rejected, 4u);
  EXPECT_LE(snap.max_queue_depth, 2u);
}

TEST(ServeAdmission, BlockPolicyDelaysInsteadOfShedding) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.batch_window = 1000;
  Server server(cfg, {});

  std::vector<Request> burst;
  for (int i = 0; i < 6; ++i)
    burst.push_back(make_request("", OpKind::kMultiply, 16,
                                 {{std::uint64_t(i), 2}}, 0));
  auto responses = server.run_trace(std::move(burst));

  util::Cycles first_completion = ~0ull, last_completion = 0;
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, RequestStatus::kOk);
    first_completion = std::min(first_completion, r.completion);
    last_completion = std::max(last_completion, r.completion);
  }
  EXPECT_GT(last_completion, first_completion);  // Backpressure delays.
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_LE(snap.max_queue_depth, 2u);
}

// -- QoS escalation -----------------------------------------------------------

constexpr unsigned kSloppyWidth = 16;
constexpr unsigned kSloppyRelax = 24;

/// Find an operand pair whose approximate product (at the "sloppy" shape)
/// misses the 10% relative-error spec by a wide margin — searched through
/// the same device model the server dispatches on, so the miss is certain.
std::optional<std::pair<std::uint64_t, std::uint64_t>>
find_qos_missing_operands() {
  core::ApimConfig cfg;
  cfg.word_bits = kSloppyWidth;
  cfg.approx.relax_bits = kSloppyRelax;
  for (std::uint64_t a = 257; a < 8192; a += 13) {
    core::ApimDevice device{cfg};
    const auto approx = static_cast<double>(device.mul_magnitude(a, a));
    const double golden = static_cast<double>(a) * static_cast<double>(a);
    if (std::abs(approx - golden) / golden > 0.25) return {{a, a}};
  }
  return std::nullopt;
}

TEST(ServeQos, MissEscalatesToExactAndReruns) {
  const auto operands = find_qos_missing_operands();
  ASSERT_TRUE(operands.has_value())
      << "relax " << kSloppyRelax << " never misses the spec";
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});

  ServerConfig cfg;
  cfg.batch_window = 100;
  Server server(cfg, table);
  auto responses = server.run_trace({make_request(
      "sloppy", OpKind::kMultiply, kSloppyWidth,
      {{operands->first, operands->second}})});
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_TRUE(r.escalated);
  EXPECT_EQ(r.relax_bits, 0u);
  EXPECT_EQ(r.values, (std::vector<std::uint64_t>{
                          operands->first * operands->second}));
  EXPECT_TRUE(r.qos.acceptable);

  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.escalations, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_TRUE(server.qos_table().escalated("sloppy"));
  EXPECT_EQ(server.qos_table().relax_for("sloppy"), 0u);
  ASSERT_EQ(snap.per_app.count("sloppy"), 1u);
  EXPECT_EQ(snap.per_app.at("sloppy").escalated, 1u);
}

TEST(ServeQos, EscalationCanBeDisabled) {
  const auto operands = find_qos_missing_operands();
  ASSERT_TRUE(operands.has_value());
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});
  ServerConfig cfg;
  cfg.batch_window = 100;
  cfg.escalate_on_miss = false;
  Server server(cfg, table);
  auto responses = server.run_trace({make_request(
      "sloppy", OpKind::kMultiply, kSloppyWidth,
      {{operands->first, operands->second}})});
  const Response& r = responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_FALSE(r.escalated);
  EXPECT_FALSE(r.qos.acceptable);  // Served approximate, miss reported.
  EXPECT_EQ(server.snapshot().escalations, 0u);
}

/// A request whose exact rerun expires was never served: like every
/// status but kOk, its response carries no values and no QoS verdict, not
/// those of its approximate first pass.
TEST(ServeQos, ExpiredRerunCarriesNoValuesOrVerdict) {
  const auto operands = find_qos_missing_operands();
  ASSERT_TRUE(operands.has_value());
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});
  ServerConfig cfg;
  cfg.batch_window = 300;
  Server server(cfg, table);
  // The first pass completes after cycle 300 and misses the spec; its
  // rerun's batch closes after the 500-cycle deadline and expires.
  const std::vector<Response> responses = server.run_trace({make_request(
      "sloppy", OpKind::kMultiply, kSloppyWidth,
      {{operands->first, operands->second}}, 0, /*deadline=*/500)});
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  EXPECT_EQ(server.snapshot().escalations, 1u);
  EXPECT_EQ(r.status, RequestStatus::kExpired);
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(r.qos.loss, 0.0);
  EXPECT_FALSE(r.qos.acceptable);
  EXPECT_FALSE(r.escalated);
  EXPECT_EQ(r.relax_bits, 0u);
}

/// Every Response field of a run that escalates, expires and rejects,
/// pinned by digest (tests/snapshot_digest.hpp). Some escalated reruns
/// then expire, so the pin also covers what a request that was escalated
/// but not served reports.
TEST(ServeQos, RunTraceResponseDigestIsPinned) {
  serve::LoadGenConfig gen;
  gen.requests = 400;
  gen.rate_per_kcycle = 40.0;
  gen.seed = 5;
  gen.apps = {"sloppy", "exact"};
  gen.min_ops = 1;
  gen.max_ops = 4;
  gen.width = kSloppyWidth;
  gen.add_fraction = 0.25;
  gen.deadline = 1200;
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});
  ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 8;
  cfg.queue_capacity = 24;
  cfg.batch_window = 300;
  cfg.device.energy = digest::kDigestEnergy;
  // Two requests that miss the spec at the sloppy relax level lead the
  // trace. Both escalate after their first pass; the one with a deadline
  // expires before its exact rerun dispatches.
  const auto miss = find_qos_missing_operands();
  ASSERT_TRUE(miss.has_value());
  std::vector<Request> trace = {
      make_request("sloppy", OpKind::kMultiply, kSloppyWidth,
                   {{miss->first, miss->second}}),
      make_request("sloppy", OpKind::kMultiply, kSloppyWidth,
                   {{miss->first, miss->second}}, 0, /*deadline=*/500)};
  for (Request& r : serve::make_open_loop_trace(gen))
    trace.push_back(std::move(r));
  Server server(cfg, table);
  const std::vector<Response> responses = server.run_trace(std::move(trace));
  const MetricsSnapshot snap = server.snapshot();
  ASSERT_EQ(responses.size(), gen.requests + 2);
  EXPECT_TRUE(responses[0].escalated);
  EXPECT_EQ(responses[1].status, RequestStatus::kExpired);
  std::uint64_t served_escalated = 0, served_relaxed = 0;
  for (const Response& r : responses) {
    served_escalated += r.escalated;
    served_relaxed += r.relax_bits > 0;
  }
  EXPECT_GT(served_escalated, 0u);
  EXPECT_GT(served_relaxed, 0u);
  EXPECT_GT(snap.escalations, served_escalated);
  EXPECT_GT(snap.expired, 0u);
  EXPECT_GT(snap.rejected, 0u);
  constexpr std::uint64_t kDigest = 1681451711105936902ull;
  EXPECT_EQ(digest::of(responses), kDigest)
      << "digest=" << digest::of(responses);
}

// -- Metrics ------------------------------------------------------------------

TEST(ServeMetrics, SnapshotIsInternallyConsistent) {
  const TraceRun run =
      run_reference_trace(reliability::ReliabilityPolicy::kOff);
  const MetricsSnapshot& s = run.snap;
  EXPECT_EQ(s.submitted, 160u);
  EXPECT_EQ(s.completed + s.rejected + s.expired + s.invalid, s.submitted);
  EXPECT_LE(s.p50_latency_cycles, s.p95_latency_cycles);
  EXPECT_LE(s.p95_latency_cycles, s.p99_latency_cycles);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.mean_batch_requests, 1.0);
  EXPECT_GE(static_cast<double>(s.max_batch_requests),
            s.mean_batch_requests);
  EXPECT_GT(s.span_cycles, 0u);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GT(s.energy_pj, 0.0);
  EXPECT_GT(s.lane_occupancy, 0.0);
  EXPECT_LE(s.stream_occupancy, 1.0);
  EXPECT_TRUE(s.slo_met(0.0));  // No SLO configured: trivially met.
  EXPECT_FALSE(s.slo_met(1e-9));

  std::uint64_t per_app_completed = 0;
  for (const auto& [app, counts] : s.per_app)
    per_app_completed += counts.completed;
  EXPECT_EQ(per_app_completed, s.completed);
}

// -- Configuration ------------------------------------------------------------

TEST(ServeConfig, RejectsZeroSizesInEveryBuildType) {
  // Each used to misbehave in Release, where the engine's asserts compile
  // out: zero lanes divide by zero on the first multiply, and zero streams
  // or a zero blocking queue leave requests pending forever. A fault event
  // for a domain the server does not have was skipped, health layer on or
  // off, so a chaos run injected fewer faults than configured.
  const auto with = [](auto set) {
    ServerConfig cfg;
    set(cfg);
    return cfg;
  };
  EXPECT_THROW(Server(with([](ServerConfig& c) { c.streams = 0; })),
               std::invalid_argument);
  EXPECT_THROW(Server(with([](ServerConfig& c) { c.lanes_per_stream = 0; })),
               std::invalid_argument);
  for (const bool health_on : {false, true}) {
    EXPECT_THROW(Server(with([&](ServerConfig& c) {
                   c.health.enabled = health_on;
                   serve::health::DomainFaultEvent kill;
                   kill.domain = c.streams;
                   kill.kind = serve::health::DomainFaultEvent::Kind::kKill;
                   c.health.fault_schedule = {kill};
                 })),
                 std::invalid_argument)
        << "health " << health_on;
  }
  for (const AdmissionPolicy admission :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kReject}) {
    EXPECT_THROW(Server(with([&](ServerConfig& c) {
                   c.queue_capacity = 0;
                   c.admission = admission;
                 })),
                 std::invalid_argument);
  }
  // The smallest valid sizes serve, with a fault event on the last domain.
  Server server(with([](ServerConfig& c) {
    c.streams = 1;
    c.lanes_per_stream = 1;
    c.queue_capacity = 1;
    c.admission = AdmissionPolicy::kBlock;
    serve::health::DomainFaultEvent clear;
    clear.domain = 0;
    clear.kind = serve::health::DomainFaultEvent::Kind::kClear;
    c.health.fault_schedule = {clear};
  }));
  const std::vector<Response> responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{6, 7}, {8, 9}}),
       make_request("", OpKind::kVectorAdd, 16, {{1, 2}})});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].values, (std::vector<std::uint64_t>{42, 72}));
  EXPECT_EQ(responses[1].values, (std::vector<std::uint64_t>{3}));
}

TEST(ServeConfig, RejectsWhatAResponseCannotRecord) {
  // A Response keeps its batch's request count and its relocations in 16
  // bits and its relax level in 8 (request.hpp), so each is capped where
  // it enters rather than wrapped where it is stored.
  ServerConfig wide;
  wide.max_batch_ops = 65536;
  EXPECT_THROW(Server{wide}, std::invalid_argument);
  wide.max_batch_ops = 0;  // The budget falls back to the lanes.
  wide.lanes_per_stream = 65536;
  EXPECT_THROW(Server{wide}, std::invalid_argument);
  ServerConfig relocating;
  relocating.health.max_relocations = 65536;
  EXPECT_THROW(Server{relocating}, std::invalid_argument);
  QosTable table;
  EXPECT_THROW(table.set("tenant", QosTableEntry{65, 0.0, true, false}),
               std::invalid_argument);
  EXPECT_TRUE(table.entries().empty());

  // The widest values that fit are served (kept at relax 64: a QoS miss
  // would rerun the request exact).
  table.set("tenant", QosTableEntry{64, 0.0, true, false});
  ServerConfig widest;
  widest.max_batch_ops = 65535;
  widest.health.max_relocations = 65535;
  widest.escalate_on_miss = false;
  Server server(widest, table);
  const std::vector<Response> responses = server.run_trace(
      {make_request("tenant", OpKind::kMultiply, 16, {{6, 7}})});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].relax_bits, 64u);
  EXPECT_EQ(responses[0].batch_requests, 1u);
}

TEST(ServeExecution, ExecuteBatchRejectsZeroLanesInEveryBuildType) {
  // Server refuses zero lanes, but execute_batch is public: a Release
  // build divided by the lane count on the first multiply.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> ops = {{6, 7}};
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(ops);
  EXPECT_THROW((void)serve::execute_batch(std::span(&member, 1), BatchKey{},
                                          0, core::ApimConfig{}),
               std::invalid_argument);
  const serve::BatchExecution one = serve::execute_batch(
      std::span(&member, 1), BatchKey{}, 1, core::ApimConfig{});
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_EQ(one.values[0][0], 42u);
}

// -- Request lifecycle --------------------------------------------------------

TEST(ServeLifecycle, StagedResponsesStayReadableAfterADrive) {
  // response(id) covers stage_request. run_trace moves its own responses
  // out and releases every finished request's operands; the staged
  // response survives both, and ids stay dense across the two drivers.
  Server server(ServerConfig{}, {});
  const std::uint64_t staged = server.stage_request(
      make_request("", OpKind::kMultiply, 16, {{3, 5}}));
  while (const auto at = server.next_event_at()) server.step_until(*at);
  const std::vector<Response> traced = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{7, 11}}, 10)});
  ASSERT_EQ(traced.size(), 1u);
  EXPECT_EQ(traced[0].id, staged + 1);
  EXPECT_EQ(traced[0].values, (std::vector<std::uint64_t>{77}));
  const Response& r = server.response(staged);
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.values, (std::vector<std::uint64_t>{15}));
}

TEST(ServeLifecycle, ResponseRejectsAnIdNeverStaged) {
  // An unchecked index into the engine's records reads past them: at
  // id + 1000000 that segfaults in Release.
  Server server(ServerConfig{}, {});
  EXPECT_THROW((void)server.response(0), std::out_of_range);
  const std::uint64_t id = server.stage_request(
      make_request("", OpKind::kMultiply, 16, {{3, 5}}));
  EXPECT_EQ(server.response(id).status, RequestStatus::kPending);
  EXPECT_THROW((void)server.response(id + 1), std::out_of_range);
  EXPECT_THROW((void)server.response(id + 1000000), std::out_of_range);
}

// -- Offline QoS table --------------------------------------------------------

TEST(ServeQosTable, BuildsTunedEntriesAndFallsBackForUnknownApps) {
  const std::vector<std::string> apps = {"Sobel"};
  const QosTable table = serve::build_qos_table(apps, 256, 2017);
  ASSERT_EQ(table.entries().count("Sobel"), 1u);
  const QosTableEntry& entry = table.entries().at("Sobel");
  EXPECT_TRUE(entry.met_qos);
  EXPECT_EQ(table.relax_for("Sobel"), entry.relax_bits);
  EXPECT_EQ(table.relax_for("never-registered"), 0u);

  QosTable copy = table;
  copy.escalate("Sobel");
  EXPECT_EQ(copy.relax_for("Sobel"), 0u);
}

// -- Serving geometry ---------------------------------------------------------

TEST(ServeGeometry, ChipDerivedStreamsAndLanes) {
  const core::ApimChip chip;
  EXPECT_EQ(chip.command_streams(), chip.geometry().banks);
  EXPECT_EQ(chip.lanes_per_stream(), chip.geometry().active_tiles_per_bank);
  EXPECT_EQ(chip.command_streams() * chip.lanes_per_stream(),
            chip.parallel_lanes());

  const ServerConfig cfg = ServerConfig::from_chip(chip);
  EXPECT_EQ(cfg.streams, chip.command_streams());
  EXPECT_EQ(cfg.lanes_per_stream, chip.lanes_per_stream());
  EXPECT_EQ(cfg.total_lanes(), chip.parallel_lanes());
  EXPECT_EQ(cfg.device.parallel_lanes, chip.parallel_lanes());
}

// -- Satellite units ----------------------------------------------------------

TEST(QosSpec, LossThresholdUnifiesBothKinds) {
  EXPECT_DOUBLE_EQ(quality::QosSpec::numeric().loss_threshold(), 0.10);
  // 30 dB PSNR == 10^(-30/20) peak-normalized RMSE.
  EXPECT_NEAR(quality::QosSpec::image().loss_threshold(), 0.0316228, 1e-6);
}

TEST(AccuracyTuner, RelaxCandidatesMatchPaperSchedule) {
  EXPECT_EQ(core::AccuracyTuner().relax_candidates(),
            (std::vector<unsigned>{32, 28, 24, 20, 16, 12, 8, 4, 0}));
  EXPECT_EQ(core::AccuracyTuner(8, 3).relax_candidates(),
            (std::vector<unsigned>{8, 5, 2, 0}));
}

TEST(JsonValue, RendersStableOrderedDocuments) {
  util::JsonValue report = util::JsonValue::object();
  report.set("name", "serving");
  report.set("count", std::uint64_t{3});
  report.set("ratio", 0.5);
  report.set("ok", true);
  report.set("nothing", util::JsonValue{});
  util::JsonValue arr = util::JsonValue::array();
  arr.append(1);
  arr.append("two");
  report.set("items", std::move(arr));
  report.set("count", std::uint64_t{4});  // Overwrite keeps position.

  EXPECT_EQ(report.dump(),
            "{\n"
            "  \"name\": \"serving\",\n"
            "  \"count\": 4,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"nothing\": null,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    \"two\"\n"
            "  ]\n"
            "}\n");
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  util::JsonValue v{std::string("x\"y")};
  EXPECT_EQ(v.dump(), "\"x\\\"y\"\n");
}

}  // namespace
