// FNV-1a digests over every field of a serve::MetricsSnapshot and a
// cluster::ClusterSnapshot: counters, doubles by bit pattern, the device
// stats, per-app, per-domain and capacity-timeline entries, and the
// per-chip snapshots of a cluster. The same goes for a run's responses:
// every serve::Response field, and a cluster::ClusterResponse's routing,
// edge times and interconnect energy on top, and for a run's event log:
// every serve::trace::Event field, stream by stream. A test that pins a run's
// digest fails on any change to any field, which a comparison of two runs
// of the same build cannot catch. Pinned runs price ops with
// digest::kDigestEnergy (tests/digest.hpp). gtest-free, like the other
// test harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/stats.hpp"
#include "digest.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/trace.hpp"

namespace apim::digest {

inline void mix(Fnv1a& h, const core::ExecStats& s) {
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

inline void mix(Fnv1a& h, const serve::MetricsSnapshot& s) {
  h.mix(s.submitted);
  h.mix(s.completed);
  h.mix(s.rejected);
  h.mix(s.expired);
  h.mix(s.invalid);
  h.mix(s.escalations);
  h.mix(s.batches);
  h.mix(s.batched_ops);
  h.mix(s.mean_batch_requests);
  h.mix(std::uint64_t{s.max_batch_requests});
  h.mix(std::uint64_t{s.max_queue_depth});
  h.mix(s.span_cycles);
  h.mix(s.p50_latency_cycles);
  h.mix(s.p95_latency_cycles);
  h.mix(s.p99_latency_cycles);
  h.mix(s.mean_latency_cycles);
  h.mix(s.throughput_rps);
  h.mix(s.lane_occupancy);
  h.mix(s.stream_occupancy);
  h.mix(s.energy_pj);
  mix(h, s.device_stats);
  h.mix(s.jain_fairness);
  h.mix(std::uint64_t{s.domains.size()});
  for (const serve::MetricsSnapshot::DomainSnapshot& d : s.domains) {
    h.mix(std::uint64_t{static_cast<std::uint8_t>(d.state)});
    h.mix(d.dead);
    h.mix(d.dispatches);
    h.mix(d.detections);
    h.mix(d.escalations);
    h.mix(d.scrubs);
    h.mix(d.stuck_found);
    h.mix(d.repaired_bits);
    h.mix(d.quarantines);
    h.mix(d.readmissions);
  }
  h.mix(s.scrub_passes);
  h.mix(s.scrub_cycles);
  h.mix(s.scrub_energy_pj);
  h.mix(s.scrub_repaired_bits);
  h.mix(s.relocated_requests);
  h.mix(s.relocated_ops);
  h.mix(s.relocated_batches);
  h.mix(s.relocation_rejects);
  h.mix(s.degraded_batches);
  h.mix(s.degraded_ops);
  h.mix(std::uint64_t{s.capacity_timeline.size()});
  for (const serve::MetricsSnapshot::CapacityPoint& p : s.capacity_timeline) {
    h.mix(p.at);
    h.mix(std::uint64_t{p.serving_domains});
  }
  h.mix(std::uint64_t{s.min_serving_domains});
  h.mix(std::uint64_t{s.per_app.size()});
  for (const auto& [app, c] : s.per_app) {
    h.mix(app);
    h.mix(c.completed);
    h.mix(c.escalated);
    h.mix(c.qos_misses);
    h.mix(c.weight);
    h.mix(c.dispatches);
    h.mix(c.ops_served);
    h.mix(c.max_deficit_carried);
    h.mix(c.max_starvation_cycles);
  }
}

inline void mix(Fnv1a& h, const serve::Response& r) {
  h.mix(r.id);
  h.mix(std::uint64_t{r.values.size()});
  for (const std::uint64_t v : r.values) h.mix(v);
  h.mix(r.qos.loss);
  h.mix(r.qos.acceptable);
  h.mix(r.arrival);
  h.mix(r.dispatch);
  h.mix(r.completion);
  h.mix(std::uint64_t{r.batch_requests});
  h.mix(r.energy_pj);
  h.mix(std::uint64_t{r.relocations});
  h.mix(unsigned{r.relax_bits});
  h.mix(std::uint64_t{static_cast<std::uint8_t>(r.status)});
  h.mix(r.escalated);
}

[[nodiscard]] inline std::uint64_t of(
    const std::vector<serve::Response>& responses) {
  Fnv1a h;
  h.mix(std::uint64_t{responses.size()});
  for (const serve::Response& r : responses) mix(h, r);
  return h.value();
}

[[nodiscard]] inline std::uint64_t of(
    const std::vector<cluster::ClusterResponse>& responses) {
  Fnv1a h;
  h.mix(std::uint64_t{responses.size()});
  for (const cluster::ClusterResponse& r : responses) {
    mix(h, r.resp);
    h.mix(std::uint64_t{r.shard});
    h.mix(std::uint64_t{r.addressed_chip});
    h.mix(std::uint64_t{r.exec_chip});
    h.mix(r.cross_chip);
    h.mix(r.held_by_migration);
    h.mix(r.hops);
    h.mix(r.edge_arrival);
    h.mix(r.edge_completion);
    h.mix(r.interconnect_energy_pj);
  }
  return h.value();
}

inline void mix(Fnv1a& h, std::int64_t v) {
  h.mix(static_cast<std::uint64_t>(v));
}

inline void mix(Fnv1a& h, const serve::trace::Event& e) {
  h.mix(std::uint64_t{static_cast<std::uint8_t>(e.kind)});
  h.mix(e.at);
  mix(h, std::int64_t{e.chip});
  mix(h, e.req);
  h.mix(e.app);
  mix(h, e.domain);
  h.mix(std::uint64_t{e.op});
  h.mix(e.width);
  h.mix(e.relax);
  h.mix(std::uint64_t{e.policy});
  h.mix(e.ops);
  h.mix(std::uint64_t{e.members.size()});
  for (const std::uint64_t m : e.members) h.mix(m);
  h.mix(e.amount);
  h.mix(e.deficit_after);
  h.mix(e.idle_reset);
  h.mix(e.queue_depth);
  h.mix(e.capacity);
  h.mix(std::uint64_t{e.state_from});
  h.mix(std::uint64_t{e.state_to});
  h.mix(e.dead);
  h.mix(e.clean);
  h.mix(e.offline);
  h.mix(e.stuck);
  h.mix(e.repaired);
  h.mix(e.detections);
  h.mix(e.escalations);
  h.mix(e.scrub);
  mix(h, e.from);
  mix(h, e.to);
  h.mix(e.hops);
  h.mix(e.bits);
  h.mix(e.cycles);
  h.mix(e.energy_pj);
  mix(h, e.shard);
}

/// An event log taken stream by stream: the cluster-scope events (chip
/// -1) and then each chip's, each stream in emission order. How the
/// streams interleave in the shared log does not enter the digest, what
/// each stream holds does.
[[nodiscard]] inline std::uint64_t of(const serve::trace::EventLog& log) {
  std::int32_t last_chip = -1;
  for (const serve::trace::Event& e : log.events())
    last_chip = std::max(last_chip, e.chip);
  Fnv1a h;
  for (std::int32_t chip = -1; chip <= last_chip; ++chip) {
    std::uint64_t count = 0;
    for (const serve::trace::Event& e : log.events()) count += e.chip == chip;
    mix(h, std::int64_t{chip});
    h.mix(count);
    for (const serve::trace::Event& e : log.events())
      if (e.chip == chip) mix(h, e);
  }
  return h.value();
}

[[nodiscard]] inline std::uint64_t of(const serve::MetricsSnapshot& s) {
  Fnv1a h;
  mix(h, s);
  return h.value();
}

[[nodiscard]] inline std::uint64_t of(const cluster::ClusterSnapshot& s) {
  Fnv1a h;
  h.mix(std::uint64_t{s.chips.size()});
  for (const serve::MetricsSnapshot& chip : s.chips) mix(h, chip);
  h.mix(s.requests);
  h.mix(s.total_ops);
  h.mix(s.cross_chip_requests);
  h.mix(s.cross_chip_ops);
  h.mix(s.held_requests);
  h.mix(s.cross_shard_traffic_share);
  h.mix(s.forward_hops);
  h.mix(s.interconnect_cycles);
  h.mix(s.interconnect_energy_pj);
  h.mix(s.migrations);
  h.mix(s.evacuations);
  h.mix(s.migration_cycles);
  h.mix(s.migration_energy_pj);
  h.mix(s.chip_jain);
  h.mix(std::uint64_t{s.placement.size()});
  for (const std::size_t chip : s.placement) h.mix(std::uint64_t{chip});
  h.mix(std::uint64_t{s.shard_load.size()});
  for (const double load : s.shard_load) h.mix(load);
  return h.value();
}

}  // namespace apim::digest
