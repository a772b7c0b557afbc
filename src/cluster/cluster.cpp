#include "cluster/cluster.hpp"

#include <algorithm>
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

}  // namespace

ClusterConfig ClusterConfig::from_chip(const core::ApimChip& chip,
                                       std::size_t chips) {
  ClusterConfig cfg;
  cfg.chips = chips == 0 ? 1 : chips;
  cfg.server = serve::ServerConfig::from_chip(chip);
  cfg.interconnect = InterconnectConfig::from_chip(chip);
  return cfg;
}

struct Cluster::Impl {
  Impl(ClusterConfig c, serve::QosTable t)
      : cfg(normalize(std::move(c))),
        table(std::move(t)),
        placement(cfg.shards, cfg.chips, cfg.seed, cfg.placement_overrides),
        rebalancer(cfg.shards, cfg.rebalance) {
    // The cluster fills its half of a shared trace header; the first chip
    // fills the serve half (one replicated ServerConfig across chips).
    if (cfg.trace != nullptr) {
      serve::trace::Meta& m = cfg.trace->meta;
      m.chips = cfg.chips;
      m.shards = cfg.shards;
      m.topology = cfg.topology == Topology::kStar ? 0 : 1;
      m.hop_latency_cycles = cfg.interconnect.hop_latency_cycles;
      m.link_bits = cfg.interconnect.link_bits;
      m.pj_per_bit_hop = cfg.interconnect.pj_per_bit_hop;
      m.shard_bits = cfg.shard_bits;
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

  static ClusterConfig normalize(ClusterConfig c) {
    if (c.chips == 0) c.chips = 1;
    if (c.shards == 0) c.shards = 1;
    return c;
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
      const std::uint64_t h =
          hop_count(cfg.topology, cfg.chips, ri.addressed, ri.exec);
      const std::uint64_t bits = payload_bits(ri.ops, ri.width);
      const util::Cycles delay = route_cycles(cfg.interconnect, h, bits);
      const double pj = route_energy_pj(cfg.interconnect, h, bits);
      r.arrival = base + delay;
      ri.cross = true;
      ri.fwd_hops = h;
      ri.energy_pj += pj;
      ++cross_chip_requests;
      cross_chip_ops += ri.ops;
      forward_hops += h;
      interconnect_cycles += delay;
      interconnect_energy_pj += pj;
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
    ++requests;
    total_ops += ri.ops;
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
      ++held_requests;
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
    stale[m.shard] = StaleView{m.from, m.done_at + cfg.placement_propagation};
    if (m.evacuation) {
      ++evacuations;
    } else {
      ++migrations;
    }
    migration_cycles += m.latency;
    const std::uint64_t h = hop_count(cfg.topology, cfg.chips, m.from, m.to);
    migration_energy_pj += route_energy_pj(cfg.interconnect, h, cfg.shard_bits);
    interconnect_energy_pj +=
        route_energy_pj(cfg.interconnect, h, cfg.shard_bits);
    if (cfg.trace != nullptr) {
      // Commits at one instant are processed shard-ascending; the trace
      // records them in that order (the commit-order invariant).
      serve::trace::Event e =
          cev(serve::trace::EventKind::kMigrationCommit, trace_now);
      e.shard = static_cast<std::int64_t>(m.shard);
      e.from = static_cast<std::int64_t>(m.from);
      e.to = static_cast<std::int64_t>(m.to);
      e.hops = h;
      e.bits = cfg.shard_bits;
      e.cycles = m.latency;
      e.energy_pj = route_energy_pj(cfg.interconnect, h, cfg.shard_bits);
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
      const std::uint64_t h =
          hop_count(cfg.topology, cfg.chips, d.from, d.to);
      const util::Cycles lat =
          route_cycles(cfg.interconnect, h, cfg.shard_bits);
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
        e.bits = cfg.shard_bits;
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

  // -- Cluster counters ------------------------------------------------------
  std::uint64_t requests = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t cross_chip_requests = 0;
  std::uint64_t cross_chip_ops = 0;
  std::uint64_t held_requests = 0;
  std::uint64_t forward_hops = 0;
  util::Cycles interconnect_cycles = 0;
  double interconnect_energy_pj = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t evacuations = 0;
  util::Cycles migration_cycles = 0;
  double migration_energy_pj = 0.0;
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

  // Global discrete-event loop: advance to the earliest pending event —
  // trace arrival, migration commit, rebalance tick or any chip's next
  // internal event — process cluster-level events at that instant in a
  // fixed order (commits by shard, ticks, arrivals in trace order), then
  // step every chip to it.
  for (;;) {
    std::optional<util::Cycles> t;
    const auto consider = [&](util::Cycles c) {
      if (!t || c < *t) t = c;
    };
    if (oi < n) consider(im.reqs[order[oi]].arrival);
    for (const Impl::ActiveMigration& m : im.active) consider(m.done_at);
    bool chip_events = false;
    for (const auto& s : im.servers) {
      if (const std::optional<util::Cycles> at = s->next_event_at()) {
        consider(*at);
        chip_events = true;
      }
    }
    // The tick timer only runs alongside real work; otherwise a drained
    // cluster would rebalance forever.
    if (ticks_enabled &&
        (oi < n || !im.active.empty() || chip_events)) {
      consider(next_tick);
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
      im.run_tick(next_tick);
      next_tick += im.cfg.rebalance.interval;
    }

    while (oi < n && im.reqs[order[oi]].arrival <= now) im.admit(order[oi++]);

    for (const auto& s : im.servers) s->step_until(now);
  }

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
      const std::uint64_t h =
          hop_count(im.cfg.topology, im.cfg.chips, ri.exec, ri.addressed);
      const std::uint64_t bits = payload_bits(ri.ops, ri.width);
      const util::Cycles delay =
          route_cycles(im.cfg.interconnect, h, bits);
      const double pj = route_energy_pj(im.cfg.interconnect, h, bits);
      cr.hops += h;
      cr.edge_completion += delay;
      cr.interconnect_energy_pj += pj;
      im.forward_hops += h;
      im.interconnect_cycles += delay;
      im.interconnect_energy_pj += pj;
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
  ClusterSnapshot s;
  s.chips.reserve(im.cfg.chips);
  for (const auto& srv : im.servers) s.chips.push_back(srv->snapshot());

  s.requests = im.requests;
  s.total_ops = im.total_ops;
  s.cross_chip_requests = im.cross_chip_requests;
  s.cross_chip_ops = im.cross_chip_ops;
  s.held_requests = im.held_requests;
  s.cross_shard_traffic_share =
      im.total_ops == 0 ? 0.0
                        : static_cast<double>(im.cross_chip_ops) /
                              static_cast<double>(im.total_ops);
  s.forward_hops = im.forward_hops;
  s.interconnect_cycles = im.interconnect_cycles;
  s.interconnect_energy_pj = im.interconnect_energy_pj;
  s.migrations = im.migrations;
  s.evacuations = im.evacuations;
  s.migration_cycles = im.migration_cycles;
  s.migration_energy_pj = im.migration_energy_pj;

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

const ClusterConfig& Cluster::config() const noexcept { return impl_->cfg; }

const Placement& Cluster::placement() const noexcept {
  return impl_->placement;
}

std::size_t Cluster::shard_of(const std::string& app) const {
  return Placement::shard_of(app, impl_->cfg.shards);
}

}  // namespace apim::cluster
