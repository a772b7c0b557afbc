#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "serve/health.hpp"
#include "serve/trace.hpp"

namespace apim::cluster {

namespace {

/// Bits a request or response payload occupies on the wire: `ops` values
/// of two `width`-bit operands (forward) or one up-to-2*width-bit result
/// (return) — the same size either way.
std::uint64_t payload_bits(std::size_t ops, unsigned width) {
  return static_cast<std::uint64_t>(ops) * 2u * width;
}

/// Checked in every build type: an empty cluster, or an override or
/// fault schedule that names a shard or chip the cluster does not have,
/// would otherwise be clamped or dropped and the run served silently.
ClusterConfig validated(ClusterConfig cfg) {
  if (cfg.chips == 0)
    throw std::invalid_argument("Cluster: chips must be >= 1");
  if (cfg.shards == 0)
    throw std::invalid_argument("Cluster: shards must be >= 1");
  for (const auto& [shard, chip] : cfg.placement_overrides) {
    if (shard >= cfg.shards || chip >= cfg.chips) {
      throw std::invalid_argument(
          "Cluster: placement override names a shard or chip out of range");
    }
  }
  for (const auto& entry : cfg.chip_fault_schedules) {
    if (entry.first >= cfg.chips) {
      throw std::invalid_argument(
          "Cluster: chip fault schedule names a chip out of range");
    }
  }
  return cfg;
}

}  // namespace

struct Cluster::Impl {
  Impl(ClusterConfig c, serve::QosTable t)
      : cfg(validated(std::move(c))),
        table(std::move(t)),
        placement(cfg.shards, cfg.chips, cfg.seed, cfg.placement_overrides),
        rebalancer(cfg.shards, cfg.rebalance) {
    // The cluster fills its half of a shared trace header; the first chip
    // fills the serve half (one replicated ServerConfig across chips).
    if (cfg.trace != nullptr) {
      serve::trace::Meta& m = cfg.trace->meta;
      m.chips = cfg.chips;
      m.shards = cfg.shards;
      m.hop_latency_cycles = cfg.interconnect.hop_latency_cycles;
      m.link_bits = cfg.interconnect.link_bits;
      m.pj_per_bit_hop = cfg.interconnect.pj_per_bit_hop;
      m.shard_bits = kShardBits;
    }
    servers.reserve(cfg.chips);
    for (std::size_t chip = 0; chip < cfg.chips; ++chip) {
      serve::ServerConfig sc = cfg.server;
      const auto it = cfg.chip_fault_schedules.find(chip);
      if (it != cfg.chip_fault_schedules.end())
        sc.health.fault_schedule = it->second;
      sc.trace = cfg.trace;
      sc.trace_chip = static_cast<std::int32_t>(chip);
      servers.push_back(std::make_unique<serve::Server>(sc, table));
    }
  }

  // -- Per-request routing record ------------------------------------------
  struct RouteInfo {
    std::size_t shard = 0;
    std::size_t addressed = 0;
    std::size_t exec = 0;
    bool cross = false;
    bool held = false;
    std::uint64_t fwd_hops = 0;
    util::Cycles edge_arrival = 0;
    double energy_pj = 0.0;
    std::size_t ops = 0;
    unsigned width = 0;
    std::uint64_t id = 0;  ///< Chip-local request id on `exec`.
  };

  struct ActiveMigration {
    std::size_t shard = 0;
    std::size_t from = 0;
    std::size_t to = 0;
    util::Cycles done_at = 0;
    util::Cycles latency = 0;
    bool evacuation = false;
  };

  /// Post-migration stale placement view: clients address `old_chip`
  /// until `until`.
  struct StaleView {
    std::size_t old_chip = 0;
    util::Cycles until = 0;
  };

  /// Stage request `idx` on its shard's current home chip, charging the
  /// forward leg when the addressed chip differs. `base` is the earliest
  /// cycle the request can leave the addressed chip (its arrival, or the
  /// commit time of the migration that held it).
  /// Cluster-scope trace event (chip = -1), stamped at the loop clock.
  [[nodiscard]] serve::trace::Event cev(serve::trace::EventKind kind,
                                        util::Cycles at) const {
    serve::trace::Event e;
    e.kind = kind;
    e.at = at;
    e.chip = -1;
    return e;
  }

  void stage(std::size_t idx, util::Cycles base) {
    RouteInfo& ri = routes[idx];
    serve::Request r = std::move(reqs[idx]);
    ri.exec = placement.chip_for(ri.shard);
    if (ri.addressed != ri.exec) {
      const std::uint64_t h = hop_count(ri.addressed, ri.exec);
      const std::uint64_t bits = payload_bits(ri.ops, ri.width);
      const util::Cycles delay = route_cycles(cfg.interconnect, h, bits);
      const double pj = route_energy_pj(cfg.interconnect, h, bits);
      r.arrival = base + delay;
      ri.cross = true;
      ri.fwd_hops = h;
      ri.energy_pj += pj;
      ++totals.cross_chip_requests;
      totals.cross_chip_ops += ri.ops;
      totals.forward_hops += h;
      totals.interconnect_cycles += delay;
      totals.interconnect_energy_pj += pj;
      if (cfg.trace != nullptr) {
        serve::trace::Event e =
            cev(serve::trace::EventKind::kForward, trace_now);
        e.req = static_cast<std::int64_t>(idx);
        e.app = r.app;
        e.shard = static_cast<std::int64_t>(ri.shard);
        e.from = static_cast<std::int64_t>(ri.addressed);
        e.to = static_cast<std::int64_t>(ri.exec);
        e.hops = h;
        e.bits = bits;
        e.cycles = delay;
        e.energy_pj = pj;
        cfg.trace->record(std::move(e));
      }
    } else {
      r.arrival = base;
    }
    ri.id = servers[ri.exec]->stage_request(std::move(r));
  }

  /// Route one arriving request: hold it when its shard is mid-migration,
  /// otherwise stage it (forwarding if the client's view is stale).
  void admit(std::size_t idx) {
    serve::Request& r = reqs[idx];
    RouteInfo& ri = routes[idx];
    ri.shard = Placement::shard_of(r.app, cfg.shards);
    ri.ops = r.operands.size();
    ri.width = r.width;
    ri.edge_arrival = r.arrival;
    rebalancer.note_admitted(ri.shard, ri.ops);
    ++totals.requests;
    totals.total_ops += ri.ops;
    ri.addressed = placement.chip_for(ri.shard);
    const std::optional<StaleView>& sv = stale[ri.shard];
    if (sv && r.arrival < sv->until) ri.addressed = sv->old_chip;
    if (cfg.trace != nullptr) {
      serve::trace::Event e =
          cev(serve::trace::EventKind::kClusterAdmit, trace_now);
      e.req = static_cast<std::int64_t>(idx);
      e.app = r.app;
      e.ops = ri.ops;
      e.width = ri.width;
      e.shard = static_cast<std::int64_t>(ri.shard);
      e.to = static_cast<std::int64_t>(ri.addressed);
      cfg.trace->record(std::move(e));
    }
    if (shard_locked[ri.shard]) {
      ri.held = true;
      ++totals.held_requests;
      held[ri.shard].push_back(idx);
      return;
    }
    stage(idx, r.arrival);
  }

  /// Commit a migration: rewrite placement, open the stale-view window,
  /// and release requests the move held (they forward old -> new home).
  void commit(const ActiveMigration& m) {
    placement.move(m.shard, m.to);
    shard_locked[m.shard] = false;
    stale[m.shard] = StaleView{m.from, m.done_at + kPlacementPropagation};
    if (m.evacuation) {
      ++totals.evacuations;
    } else {
      ++totals.migrations;
    }
    totals.migration_cycles += m.latency;
    const std::uint64_t h = hop_count(m.from, m.to);
    const double pj = route_energy_pj(cfg.interconnect, h, kShardBits);
    totals.migration_energy_pj += pj;
    totals.interconnect_energy_pj += pj;
    if (cfg.trace != nullptr) {
      // Commits at one instant are processed shard-ascending; the trace
      // records them in that order (the commit-order invariant).
      serve::trace::Event e =
          cev(serve::trace::EventKind::kMigrationCommit, trace_now);
      e.shard = static_cast<std::int64_t>(m.shard);
      e.from = static_cast<std::int64_t>(m.from);
      e.to = static_cast<std::int64_t>(m.to);
      e.hops = h;
      e.bits = kShardBits;
      e.cycles = m.latency;
      e.energy_pj = pj;
      cfg.trace->record(std::move(e));
    }
    for (const std::size_t idx : held[m.shard]) stage(idx, m.done_at);
    held[m.shard].clear();
  }

  /// One rebalance round at `tick_at`: poll chip health, let the
  /// rebalancer decide, start the migrations it picked.
  void run_tick(util::Cycles tick_at) {
    std::vector<bool> serving(cfg.chips);
    for (std::size_t c = 0; c < cfg.chips; ++c)
      serving[c] = servers[c]->serving_domain_count() > 0;
    const std::vector<MigrationDecision> decisions =
        rebalancer.tick(placement.assignment(), serving, shard_locked);
    for (const MigrationDecision& d : decisions) {
      const std::uint64_t h = hop_count(d.from, d.to);
      const util::Cycles lat = route_cycles(cfg.interconnect, h, kShardBits);
      active.push_back(
          {d.shard, d.from, d.to, tick_at + lat, lat, d.evacuation});
      shard_locked[d.shard] = true;
      if (cfg.trace != nullptr) {
        serve::trace::Event e =
            cev(serve::trace::EventKind::kMigrationStart, trace_now);
        e.shard = static_cast<std::int64_t>(d.shard);
        e.from = static_cast<std::int64_t>(d.from);
        e.to = static_cast<std::int64_t>(d.to);
        e.hops = h;
        e.bits = kShardBits;
        e.cycles = lat;
        cfg.trace->record(std::move(e));
      }
    }
  }

  ClusterConfig cfg;
  serve::QosTable table;
  Placement placement;
  Rebalancer rebalancer;
  std::vector<std::unique_ptr<serve::Server>> servers;

  // -- Run state ------------------------------------------------------------
  bool ran = false;
  /// Global loop clock: cluster-scope trace events are stamped with it so
  /// the cluster event stream is monotone (response legs, emitted in trace
  /// order after the loop, are the documented exception).
  util::Cycles trace_now = 0;
  std::vector<serve::Request> reqs;
  std::vector<RouteInfo> routes;
  std::vector<bool> shard_locked;
  std::vector<std::optional<StaleView>> stale;
  std::vector<std::vector<std::size_t>> held;
  std::vector<ActiveMigration> active;

  /// Cluster counters, accumulated in place; snapshot() adds the per-chip
  /// snapshots and the derived fields.
  ClusterSnapshot totals;
};

Cluster::Cluster(ClusterConfig config, serve::QosTable table)
    : impl_(std::make_unique<Impl>(std::move(config), std::move(table))) {}

Cluster::~Cluster() = default;

std::vector<ClusterResponse> Cluster::run_trace(
    std::vector<serve::Request> trace) {
  Impl& im = *impl_;
  // The chips' clocks, queues and counters carry over from a first run, so
  // a second one would silently serve wrong results.
  if (im.ran) {
    throw std::logic_error("Cluster::run_trace: one run per Cluster instance");
  }
  im.ran = true;

  im.reqs = std::move(trace);
  const std::size_t n = im.reqs.size();
  im.routes.assign(n, Impl::RouteInfo{});
  im.shard_locked.assign(im.cfg.shards, false);
  im.stale.assign(im.cfg.shards, std::nullopt);
  im.held.assign(im.cfg.shards, {});

  // Admission order: by arrival, input order breaking ties (merged traces
  // arrive pre-sorted, making this the identity permutation).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return im.reqs[a].arrival < im.reqs[b].arrival;
                   });

  const bool ticks_enabled =
      im.cfg.chips >= 2 && im.cfg.rebalance.interval > 0;
  util::Cycles next_tick = im.cfg.rebalance.interval;
  std::size_t oi = 0;
  const auto step_chips = [&](util::Cycles limit) {
    for (const auto& s : im.servers) s->step_until(limit);
  };

  // Global discrete-event loop over trace arrivals, migration commits and
  // rebalance ticks: commits by shard, then ticks, then arrivals in trace
  // order. Staging reads no chip state, so chips step only to T - 1 before
  // the tick at T polls their health, and drain after the loop.
  for (;;) {
    std::optional<util::Cycles> t;
    const auto consider = [&](util::Cycles c) {
      if (!t || c < *t) t = c;
    };
    if (oi < n) consider(im.reqs[order[oi]].arrival);
    for (const Impl::ActiveMigration& m : im.active) consider(m.done_at);
    // The tick timer only runs alongside real work; otherwise a drained
    // cluster would rebalance forever. With no arrival or migration left,
    // that is a chip event at or after the tick.
    if (ticks_enabled) {
      bool work = oi < n || !im.active.empty();
      if (!work) {
        step_chips(next_tick - 1);
        for (const auto& s : im.servers) work = work || s->next_event_at();
      }
      if (work) consider(next_tick);
    }
    if (!t) break;
    const util::Cycles now = *t;
    im.trace_now = std::max(im.trace_now, now);

    std::vector<Impl::ActiveMigration> due;
    for (std::size_t i = 0; i < im.active.size();) {
      if (im.active[i].done_at <= now) {
        due.push_back(im.active[i]);
        im.active.erase(im.active.begin() +
                        static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const Impl::ActiveMigration& a,
                        const Impl::ActiveMigration& b) {
                       return std::make_pair(a.done_at, a.shard) <
                              std::make_pair(b.done_at, b.shard);
                     });
    for (const Impl::ActiveMigration& m : due) im.commit(m);

    while (ticks_enabled && next_tick <= now) {
      step_chips(next_tick - 1);
      im.run_tick(next_tick);
      next_tick += im.cfg.rebalance.interval;
    }

    while (oi < n && im.reqs[order[oi]].arrival <= now) im.admit(order[oi++]);
  }
  step_chips(std::numeric_limits<util::Cycles>::max());

  // Assemble edge responses: chip-local response plus the return leg for
  // forwarded results (only kOk carries a payload back; rejections are
  // control-plane notifications and charge nothing).
  std::vector<ClusterResponse> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Impl::RouteInfo& ri = im.routes[i];
    ClusterResponse cr;
    cr.resp = im.servers[ri.exec]->response(ri.id);
    cr.shard = ri.shard;
    cr.addressed_chip = ri.addressed;
    cr.exec_chip = ri.exec;
    cr.cross_chip = ri.cross;
    cr.held_by_migration = ri.held;
    cr.hops = ri.fwd_hops;
    cr.edge_arrival = ri.edge_arrival;
    cr.edge_completion = cr.resp.completion;
    cr.interconnect_energy_pj = ri.energy_pj;
    if (ri.cross && cr.resp.status == serve::RequestStatus::kOk) {
      const std::uint64_t h = hop_count(ri.exec, ri.addressed);
      const std::uint64_t bits = payload_bits(ri.ops, ri.width);
      const util::Cycles delay =
          route_cycles(im.cfg.interconnect, h, bits);
      const double pj = route_energy_pj(im.cfg.interconnect, h, bits);
      cr.hops += h;
      cr.edge_completion += delay;
      cr.interconnect_energy_pj += pj;
      im.totals.forward_hops += h;
      im.totals.interconnect_cycles += delay;
      im.totals.interconnect_energy_pj += pj;
      if (im.cfg.trace != nullptr) {
        // Response legs are assembled after the event loop, in trace
        // order, stamped with the edge completion they delayed — the one
        // documented exception to cluster-stream clock monotonicity.
        serve::trace::Event e = im.cev(
            serve::trace::EventKind::kResponseLeg, cr.edge_completion);
        e.req = static_cast<std::int64_t>(i);
        e.shard = static_cast<std::int64_t>(ri.shard);
        e.from = static_cast<std::int64_t>(ri.exec);
        e.to = static_cast<std::int64_t>(ri.addressed);
        e.hops = h;
        e.bits = bits;
        e.cycles = delay;
        e.energy_pj = pj;
        im.cfg.trace->record(std::move(e));
      }
    }
    out.push_back(std::move(cr));
  }
  return out;
}

ClusterSnapshot Cluster::snapshot() const {
  const Impl& im = *impl_;
  ClusterSnapshot s = im.totals;
  s.chips.reserve(im.cfg.chips);
  for (const auto& srv : im.servers) s.chips.push_back(srv->snapshot());
  s.cross_shard_traffic_share =
      s.total_ops == 0 ? 0.0
                       : static_cast<double>(s.cross_chip_ops) /
                             static_cast<double>(s.total_ops);

  // Jain over per-chip tenant ops served (scrub passes excluded): how
  // evenly the cluster spread real work across chips.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const serve::MetricsSnapshot& chip : s.chips) {
    double ops = 0.0;
    for (const auto& [app, counts] : chip.per_app) {
      if (app == serve::health::kScrubTenant) continue;
      ops += static_cast<double>(counts.ops_served);
    }
    sum += ops;
    sum_sq += ops * ops;
  }
  s.chip_jain = sum_sq == 0.0
                    ? 1.0
                    : (sum * sum) /
                          (static_cast<double>(im.cfg.chips) * sum_sq);

  s.placement = im.placement.assignment();
  s.shard_load = im.rebalancer.load();
  return s;
}

}  // namespace apim::cluster
