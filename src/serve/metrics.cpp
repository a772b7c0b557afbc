#include "serve/metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace apim::serve {

void Metrics::record_submitted(util::Cycles arrival) {
  ++snap_.submitted;
  if (!saw_arrival_ || arrival < first_arrival_) {
    first_arrival_ = arrival;
    saw_arrival_ = true;
  }
}

void Metrics::record_rejected() {
  ++snap_.rejected;
}

void Metrics::record_expired() {
  ++snap_.expired;
}

void Metrics::record_invalid() {
  ++snap_.invalid;
}

void Metrics::record_queue_depth(std::size_t depth) {
  snap_.max_queue_depth = std::max(snap_.max_queue_depth, depth);
}

void Metrics::record_dispatch(std::size_t batch_requests,
                              std::size_t batch_ops, std::size_t lanes_used,
                              util::Cycles busy_cycles, double energy_pj,
                              const core::ExecStats& stats) {
  ++snap_.batches;
  snap_.batched_ops += batch_ops;
  snap_.max_batch_requests =
      std::max(snap_.max_batch_requests, batch_requests);
  batch_requests_sum_ += static_cast<double>(batch_requests);
  busy_lane_cycles_ += busy_cycles * lanes_used;
  busy_stream_cycles_ += busy_cycles;
  snap_.energy_pj += energy_pj;
  snap_.device_stats.merge(stats);
}

void Metrics::record_completed(const std::string& app, util::Cycles arrival,
                               util::Cycles completion, bool escalated,
                               bool qos_missed) {
  last_completion_ = std::max(last_completion_, completion);
  latency_samples_.push_back(
      static_cast<double>(completion >= arrival ? completion - arrival : 0));
  MetricsSnapshot::AppCounts& counts = snap_.per_app[app];
  ++counts.completed;
  if (escalated) ++counts.escalated;
  if (qos_missed) ++counts.qos_misses;
}

void Metrics::record_escalation() {
  ++snap_.escalations;
}

void Metrics::record_tenant_dispatch(const std::string& app,
                                     std::uint32_t weight, std::size_t ops,
                                     util::Cycles queued_for,
                                     std::uint64_t deficit_carried) {
  MetricsSnapshot::AppCounts& counts = snap_.per_app[app];
  counts.weight = weight;
  ++counts.dispatches;
  counts.ops_served += ops;
  counts.max_deficit_carried =
      std::max(counts.max_deficit_carried, deficit_carried);
  counts.max_starvation_cycles =
      std::max(counts.max_starvation_cycles, queued_for);
}

void Metrics::record_capacity(util::Cycles at, std::size_t serving) {
  std::vector<MetricsSnapshot::CapacityPoint>& t = snap_.capacity_timeline;
  if (t.empty() || serving < snap_.min_serving_domains)
    snap_.min_serving_domains = serving;
  if (t.empty() || t.back().serving_domains != serving)
    t.push_back(MetricsSnapshot::CapacityPoint{at, serving});
}

void Metrics::record_scrub(const health::ScrubReport& report) {
  ++snap_.scrub_passes;
  snap_.scrub_cycles += report.cycles;
  snap_.scrub_energy_pj += report.energy_pj;
  snap_.scrub_repaired_bits += report.repaired;
}

void Metrics::record_relocation(std::size_t requests, std::size_t ops) {
  ++snap_.relocated_batches;
  snap_.relocated_requests += requests;
  snap_.relocated_ops += ops;
}

void Metrics::record_relocation_reject() {
  ++snap_.relocation_rejects;
}

void Metrics::record_degraded(std::size_t ops) {
  ++snap_.degraded_batches;
  snap_.degraded_ops += ops;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s = snap_;
  s.completed = latency_samples_.size();

  double x_sum = 0.0, x_sq_sum = 0.0;
  std::size_t fair_apps = 0;
  for (const auto& [app, counts] : s.per_app) {
    if (counts.dispatches == 0) continue;
    const double x = static_cast<double>(counts.ops_served) /
                     static_cast<double>(std::max(1u, counts.weight));
    x_sum += x;
    x_sq_sum += x * x;
    ++fair_apps;
  }
  if (fair_apps > 1 && x_sq_sum > 0.0)
    s.jain_fairness =
        x_sum * x_sum / (static_cast<double>(fair_apps) * x_sq_sum);

  if (s.batches > 0) {
    s.mean_batch_requests =
        batch_requests_sum_ / static_cast<double>(s.batches);
  }
  if (saw_arrival_ && last_completion_ > first_arrival_)
    s.span_cycles = last_completion_ - first_arrival_;
  if (!latency_samples_.empty()) {
    s.p50_latency_cycles = util::percentile(latency_samples_, 0.50);
    s.p95_latency_cycles = util::percentile(latency_samples_, 0.95);
    s.p99_latency_cycles = util::percentile(latency_samples_, 0.99);
    double sum = 0.0;
    for (const double l : latency_samples_) sum += l;
    s.mean_latency_cycles = sum / static_cast<double>(latency_samples_.size());
  }
  if (s.span_cycles > 0) {
    const double span_s = util::cycles_to_seconds(s.span_cycles);
    s.throughput_rps = static_cast<double>(s.completed) / span_s;
    s.lane_occupancy = static_cast<double>(busy_lane_cycles_) /
                       (static_cast<double>(lanes_total_) *
                        static_cast<double>(s.span_cycles));
    s.stream_occupancy = static_cast<double>(busy_stream_cycles_) /
                         (static_cast<double>(streams_) *
                          static_cast<double>(s.span_cycles));
  }
  return s;
}

}  // namespace apim::serve
