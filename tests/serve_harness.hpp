// Randomized serving-scenario harness shared by the fairness stress test
// (tests/serve_fairness_test.cpp) and the load-generator tests.
//
// Everything derives from one scenario seed: each tenant gets an
// independent RNG stream (FNV-1a of its name XOR the scenario seed, run
// through splitmix64), so adding a tenant or reordering the tenant list
// never perturbs another tenant's trace. The harness is gtest-free —
// checks return "" on success or a human-readable violation string — so
// benches can reuse it without linking a test framework.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/load_gen.hpp"
#include "serve/metrics.hpp"
#include "serve/qos_table.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload_harness.hpp"

namespace apim::serve_harness {

/// One tenant's offered load and scheduling weight.
struct TenantSpec {
  std::string name;
  std::uint32_t weight = 1;
  double rate_per_kcycle = 4.0;
  std::size_t requests = 80;
  std::size_t min_ops = 2;
  std::size_t max_ops = 8;
  unsigned width = 16;
  double add_fraction = 0.0;
  util::Cycles deadline = 0;  ///< Relative; 0 = none.
  unsigned relax_bits = 0;    ///< QoS-table relax level for this app.
  /// Fault-tolerance level this tenant's requests pay for.
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
};

/// A complete serving scenario: tenants plus the server they share.
/// `server.tenant_weights` is filled from the tenants by run_scenario.
struct Scenario {
  std::uint64_t seed = 1;
  std::vector<TenantSpec> tenants;
  serve::ServerConfig server{};
};

/// What one scenario run produced. Responses are index-aligned with the
/// trace, so trace[i].app attributes responses[i] to its tenant.
struct Outcome {
  std::vector<serve::Request> trace;
  std::vector<serve::Response> responses;
  serve::MetricsSnapshot snap;
};

/// Independent per-tenant RNG stream; the seed derivation is shared with
/// the other harnesses (tests/workload_harness.hpp). Stable under tenant
/// reordering.
[[nodiscard]] inline std::uint64_t tenant_seed(std::uint64_t scenario_seed,
                                               const std::string& name) {
  return workload_harness::seeded_stream(scenario_seed, name);
}

/// One tenant's open-loop trace, drawn from its own RNG stream.
[[nodiscard]] inline std::vector<serve::Request> tenant_trace(
    const TenantSpec& t, std::uint64_t scenario_seed) {
  serve::LoadGenConfig gen;
  gen.requests = t.requests;
  gen.rate_per_kcycle = t.rate_per_kcycle;
  gen.seed = tenant_seed(scenario_seed, t.name);
  gen.apps = {t.name};
  gen.min_ops = t.min_ops;
  gen.max_ops = t.max_ops;
  gen.width = t.width;
  gen.add_fraction = t.add_fraction;
  gen.deadline = t.deadline;
  gen.policy = t.policy;
  return serve::make_open_loop_trace(gen);
}

/// All tenants' traces merged into one arrival-ordered trace. The sort is
/// stable, so simultaneous arrivals keep tenant-list order: deterministic.
[[nodiscard]] inline std::vector<serve::Request> merged_trace(
    const Scenario& s) {
  std::vector<serve::Request> all;
  for (const TenantSpec& t : s.tenants) {
    std::vector<serve::Request> part = tenant_trace(t, s.seed);
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const serve::Request& a, const serve::Request& b) {
                     return a.arrival < b.arrival;
                   });
  return all;
}

/// Draw a random but valid scenario: 1..4 tenants with mixed weights,
/// rates, shapes, deadlines and admission policies. Same seed, same
/// scenario, forever.
[[nodiscard]] inline Scenario random_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Scenario s;
  s.seed = seed;

  const std::size_t tenant_count = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < tenant_count; ++i) {
    TenantSpec t;
    t.name = "tenant-" + std::string(1, static_cast<char>('a' + i));
    t.weight = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    t.rate_per_kcycle = 1.0 + static_cast<double>(rng.next_below(12));
    t.requests = 30 + rng.next_below(50);
    t.min_ops = 1 + rng.next_below(4);
    t.max_ops = t.min_ops + rng.next_below(8);
    t.width = 8 + static_cast<unsigned>(rng.next_below(9));  // 8..16.
    t.add_fraction = rng.next_below(2) == 0 ? 0.0 : 0.25;
    t.deadline = rng.next_below(3) == 0
                     ? 20000 + 10000 * rng.next_below(7)
                     : 0;
    t.relax_bits = static_cast<unsigned>(rng.next_below(5));
    s.tenants.push_back(std::move(t));
  }

  s.server.streams = 2 + rng.next_below(3);
  s.server.lanes_per_stream = 8 + 4 * rng.next_below(3);
  s.server.batch_window = 200 + 200 * rng.next_below(6);
  s.server.dispatch_cycles = 32 + 32 * rng.next_below(4);
  s.server.queue_capacity = 64 + 64 * rng.next_below(8);
  s.server.admission = rng.next_below(4) == 0
                           ? serve::AdmissionPolicy::kBlock
                           : serve::AdmissionPolicy::kReject;
  s.server.fair_share = true;
  return s;
}

/// Run the scenario's merged trace through a fresh server. The QoS table
/// carries each tenant's relax level; weights flow into the scheduler.
[[nodiscard]] inline Outcome run_scenario(const Scenario& s) {
  serve::QosTable table;
  serve::ServerConfig cfg = s.server;
  cfg.tenant_weights.clear();
  for (const TenantSpec& t : s.tenants) {
    table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
    cfg.tenant_weights[t.name] = t.weight;
  }
  serve::Server server(cfg, std::move(table));
  Outcome out;
  out.trace = merged_trace(s);
  out.responses = server.run_trace(out.trace);
  out.snap = server.snapshot();
  return out;
}

/// How many of `app`'s requests finished with `status`.
[[nodiscard]] inline std::uint64_t app_status_count(
    const Outcome& out, const std::string& app, serve::RequestStatus status) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < out.responses.size(); ++i)
    if (out.trace[i].app == app && out.responses[i].status == status) ++n;
  return n;
}

/// Conservation check: every admitted request reaches exactly one terminal
/// status, and the metrics snapshot agrees with the responses. Returns ""
/// or a description of the first violation.
[[nodiscard]] inline std::string check_conservation(const Outcome& out) {
  std::ostringstream oss;
  std::uint64_t ok = 0, rejected = 0, expired = 0, invalid = 0;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    const serve::Response& r = out.responses[i];
    switch (r.status) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kRejected: ++rejected; break;
      case serve::RequestStatus::kExpired: ++expired; break;
      case serve::RequestStatus::kInvalid: ++invalid; break;
      case serve::RequestStatus::kPending:
        oss << "response " << i << " left pending";
        return oss.str();
    }
  }
  const std::uint64_t total = out.responses.size();
  if (ok + rejected + expired + invalid != total) {
    oss << "terminal statuses " << (ok + rejected + expired + invalid)
        << " != responses " << total;
    return oss.str();
  }
  if (out.snap.submitted != total) {
    oss << "snapshot.submitted " << out.snap.submitted << " != responses "
        << total;
    return oss.str();
  }
  if (out.snap.completed != ok || out.snap.rejected != rejected ||
      out.snap.expired != expired || out.snap.invalid != invalid) {
    oss << "snapshot counts (completed " << out.snap.completed
        << ", rejected " << out.snap.rejected << ", expired "
        << out.snap.expired << ", invalid " << out.snap.invalid
        << ") disagree with responses (" << ok << ", " << rejected << ", "
        << expired << ", " << invalid << ")";
    return oss.str();
  }
  std::uint64_t app_completed = 0;
  for (const auto& [app, counts] : out.snap.per_app)
    app_completed += counts.completed;
  if (app_completed != ok) {
    oss << "per-app completed " << app_completed << " != ok responses "
        << ok;
    return oss.str();
  }
  return {};
}

/// Doubles compared by bit pattern: 0.0 and -0.0 differ, a NaN equals
/// itself.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field of two responses equal, doubles bit for bit.
[[nodiscard]] inline bool same_response(const serve::Response& x,
                                        const serve::Response& y) {
  return x.id == y.id && x.values == y.values &&
         same_bits(x.qos.loss, y.qos.loss) &&
         x.qos.acceptable == y.qos.acceptable && x.arrival == y.arrival &&
         x.dispatch == y.dispatch && x.completion == y.completion &&
         x.batch_requests == y.batch_requests &&
         same_bits(x.energy_pj, y.energy_pj) &&
         x.relocations == y.relocations && x.relax_bits == y.relax_bits &&
         x.status == y.status && x.escalated == y.escalated;
}

/// First difference between two outcomes, or "" when bit-identical.
[[nodiscard]] inline std::string diff_outcomes(const Outcome& a,
                                               const Outcome& b) {
  std::ostringstream oss;
  if (a.responses.size() != b.responses.size()) {
    oss << "response counts " << a.responses.size() << " vs "
        << b.responses.size();
    return oss.str();
  }
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const serve::Response& x = a.responses[i];
    const serve::Response& y = b.responses[i];
    if (!same_response(x, y)) {
      oss << "response " << i << " differs (status " << to_string(x.status)
          << " vs " << to_string(y.status) << ", completion "
          << x.completion << " vs " << y.completion << ")";
      return oss.str();
    }
  }
  const serve::MetricsSnapshot& s = a.snap;
  const serve::MetricsSnapshot& t = b.snap;
  if (s.submitted != t.submitted || s.completed != t.completed ||
      s.rejected != t.rejected || s.expired != t.expired ||
      s.batches != t.batches || s.batched_ops != t.batched_ops ||
      s.span_cycles != t.span_cycles ||
      s.p99_latency_cycles != t.p99_latency_cycles ||
      s.energy_pj != t.energy_pj ||
      s.jain_fairness != t.jain_fairness) {
    oss << "metrics snapshots differ (batches " << s.batches << " vs "
        << t.batches << ", span " << s.span_cycles << " vs "
        << t.span_cycles << ")";
    return oss.str();
  }
  for (const auto& [app, counts] : s.per_app) {
    const auto it = t.per_app.find(app);
    if (it == t.per_app.end()) {
      oss << "app " << app << " missing from second snapshot";
      return oss.str();
    }
    if (counts.ops_served != it->second.ops_served ||
        counts.dispatches != it->second.dispatches ||
        counts.max_starvation_cycles != it->second.max_starvation_cycles ||
        counts.max_deficit_carried != it->second.max_deficit_carried) {
      oss << "app " << app << " fairness counters differ (ops "
          << counts.ops_served << " vs " << it->second.ops_served << ")";
      return oss.str();
    }
  }
  return {};
}

/// This app's fraction of all executed ops (0 when nothing executed).
[[nodiscard]] inline double served_ops_share(
    const serve::MetricsSnapshot& snap, const std::string& app) {
  std::uint64_t total = 0;
  for (const auto& [name, counts] : snap.per_app) total += counts.ops_served;
  if (total == 0) return 0.0;
  const auto it = snap.per_app.find(app);
  return it == snap.per_app.end()
             ? 0.0
             : static_cast<double>(it->second.ops_served) /
                   static_cast<double>(total);
}

/// p99 completion latency (cycles) over this app's kOk responses.
[[nodiscard]] inline double app_p99_latency(const Outcome& out,
                                            const std::string& app) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    if (out.trace[i].app != app) continue;
    if (out.responses[i].status != serve::RequestStatus::kOk) continue;
    samples.push_back(
        static_cast<double>(out.responses[i].latency_cycles()));
  }
  return util::percentile(std::move(samples), 0.99);
}

/// Empirical serving capacity in executed ops per 1000 cycles: drive one
/// tenant at a saturating rate and read back throughput. Calibrating
/// instead of hard-coding keeps fairness tolerances valid when the device
/// timing model changes.
[[nodiscard]] inline double measure_capacity_ops_per_kcycle(
    const serve::ServerConfig& server, const TenantSpec& heavy,
    std::uint64_t seed) {
  Scenario solo;
  solo.seed = seed;
  solo.server = server;
  TenantSpec t = heavy;
  t.deadline = 0;  // Nothing sheds during calibration.
  solo.tenants = {std::move(t)};
  const Outcome out = run_scenario(solo);
  if (out.snap.span_cycles == 0) return 0.0;
  return 1000.0 * static_cast<double>(out.snap.batched_ops) /
         static_cast<double>(out.snap.span_cycles);
}

}  // namespace apim::serve_harness
