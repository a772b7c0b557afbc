// Serving metrics: counters, distributions and a consistent snapshot.
//
// The scheduler records everything in SIMULATED cycles (the served chip's
// clock). Metrics is not synchronized: the engine records from its one
// thread, and callers snapshot between driver calls or steps. A snapshot's
// counts are mutually consistent (completed + rejected + expired + invalid
// never exceeds submitted, latency sample count equals completed, and so
// on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "serve/health.hpp"
#include "util/units.hpp"

namespace apim::serve {

struct MetricsSnapshot {
  // -- Request accounting --------------------------------------------------
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t invalid = 0;
  std::uint64_t escalations = 0;  ///< QoS-miss exact re-executions.

  // -- Dispatch accounting -------------------------------------------------
  std::uint64_t batches = 0;
  std::uint64_t batched_ops = 0;
  double mean_batch_requests = 0.0;
  std::size_t max_batch_requests = 0;
  std::size_t max_queue_depth = 0;

  // -- Simulated time ------------------------------------------------------
  util::Cycles span_cycles = 0;  ///< First arrival to last completion.
  double p50_latency_cycles = 0.0;
  double p95_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  double mean_latency_cycles = 0.0;
  /// Completed requests per simulated second.
  double throughput_rps = 0.0;
  /// Busy lane-cycles over lanes * span (0..1).
  double lane_occupancy = 0.0;
  /// Busy stream-cycles over streams * span (0..1).
  double stream_occupancy = 0.0;

  double energy_pj = 0.0;
  core::ExecStats device_stats{};  ///< Aggregate over all dispatches.

  /// Jain fairness index over weight-normalized per-app served ops,
  /// (Σx)² / (n·Σx²) with x = ops_served / weight: 1.0 when every tenant
  /// receives service exactly in weight proportion, → 1/n as one tenant
  /// monopolizes. 1.0 when fewer than two tenants dispatched.
  double jain_fairness = 1.0;

  // -- Online health (all zero/empty unless ServerConfig::health.enabled) ---
  /// Per-fault-domain health view, indexed by domain (= stream) id: each
  /// domain's own report, read from the HealthMonitor at snapshot time.
  using DomainSnapshot = health::DomainReport;
  std::vector<DomainSnapshot> domains;
  std::uint64_t scrub_passes = 0;
  util::Cycles scrub_cycles = 0;  ///< Stream-cycles spent scrubbing.
  double scrub_energy_pj = 0.0;
  std::uint64_t scrub_repaired_bits = 0;
  std::uint64_t relocated_requests = 0;  ///< Re-queues off failing domains.
  std::uint64_t relocated_ops = 0;
  std::uint64_t relocated_batches = 0;
  std::uint64_t relocation_rejects = 0;  ///< Gave up after max_relocations.
  std::uint64_t degraded_batches = 0;    ///< Ran at an upgraded policy.
  std::uint64_t degraded_ops = 0;
  /// Serving-capacity timeline: one point per change in the number of
  /// serving (non-quarantined) domains, starting at (0, streams).
  struct CapacityPoint {
    util::Cycles at = 0;
    std::size_t serving_domains = 0;
  };
  std::vector<CapacityPoint> capacity_timeline;
  std::size_t min_serving_domains = 0;
  [[nodiscard]] std::size_t serving_domains() const noexcept {
    return capacity_timeline.empty() ? 0
                                     : capacity_timeline.back().serving_domains;
  }

  /// Per-tenant completion/escalation counts and fairness accounting.
  struct AppCounts {
    std::uint64_t completed = 0;
    std::uint64_t escalated = 0;
    std::uint64_t qos_misses = 0;  ///< Final results that still missed.
    // -- Fairness (recorded at dispatch, serve/scheduler.hpp) -------------
    std::uint32_t weight = 1;       ///< Scheduling weight in effect.
    std::uint64_t dispatches = 0;   ///< Batches this app dispatched.
    std::uint64_t ops_served = 0;   ///< Executed ops (expired excluded).
    std::uint64_t max_deficit_carried = 0;  ///< Peak DRR deficit held.
    /// Longest close-to-dispatch wait of any of this app's batches: the
    /// starvation gap a fair scheduler bounds.
    util::Cycles max_starvation_cycles = 0;
  };
  std::map<std::string, AppCounts> per_app;

  /// p99 against the configured SLO; true when no SLO is set.
  [[nodiscard]] bool slo_met(double slo_p99_cycles) const noexcept {
    return slo_p99_cycles <= 0.0 || p99_latency_cycles <= slo_p99_cycles;
  }
};

class Metrics {
 public:
  Metrics(std::size_t lanes_total, std::size_t streams)
      : lanes_total_(lanes_total), streams_(streams) {}

  void record_submitted(util::Cycles arrival);
  void record_rejected();
  void record_expired();
  void record_invalid();
  void record_queue_depth(std::size_t depth);
  void record_dispatch(std::size_t batch_requests, std::size_t batch_ops,
                       std::size_t lanes_used, util::Cycles busy_cycles,
                       double energy_pj, const core::ExecStats& stats);
  void record_completed(const std::string& app, util::Cycles arrival,
                        util::Cycles completion, bool escalated,
                        bool qos_missed);
  void record_escalation();
  /// Fairness accounting for one dispatched batch: `ops` executed ops,
  /// `queued_for` cycles between batch close and dispatch, and the DRR
  /// deficit the tenant carried after being charged.
  void record_tenant_dispatch(const std::string& app, std::uint32_t weight,
                              std::size_t ops, util::Cycles queued_for,
                              std::uint64_t deficit_carried);

  // -- Online health recorders (serve/health.hpp; engine-driven) -----------
  /// Serving-domain count after a health change: appends a capacity point
  /// when it changed. The engine seeds it at (0, streams) when the health
  /// layer is on. Per-domain counts live in each domain's record.
  void record_capacity(util::Cycles at, std::size_t serving);
  void record_scrub(const health::ScrubReport& report);
  /// One relocated batch: `requests` members re-queued carrying `ops`.
  void record_relocation(std::size_t requests, std::size_t ops);
  void record_relocation_reject();
  void record_degraded(std::size_t ops);

  /// Consistent point-in-time view.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::size_t lanes_total_;
  std::size_t streams_;

  /// Every counter, accumulated in place; snapshot() copies it and fills
  /// the derived fields from the state below.
  MetricsSnapshot snap_;
  bool saw_arrival_ = false;
  util::Cycles first_arrival_ = 0;
  util::Cycles last_completion_ = 0;
  util::Cycles busy_lane_cycles_ = 0;
  util::Cycles busy_stream_cycles_ = 0;
  std::vector<double> latency_samples_;
  /// Sum of requests per dispatch, added in dispatch order.
  double batch_requests_sum_ = 0.0;
};

}  // namespace apim::serve
