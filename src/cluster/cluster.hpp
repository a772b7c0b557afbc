// Multi-chip sharded cluster: N serve::Servers behind one router.
//
// One ApimDevice is one chip; serving millions of users takes a cluster.
// A Cluster owns `chips` servers (each a full serve::Server — DRR fair
// share, dynamic batching, QoS escalation and the fault-domain health
// layer all intact), a Placement mapping tenants -> shards -> chips
// (placement.hpp), a router that admits requests at the cluster edge and
// charges the inter-chip interconnect (topology.hpp) for anything landing
// off its data's home chip, and a Rebalancer (rebalancer.hpp) migrating
// hot shards in virtual time.
//
// Coordination is a discrete-event loop over virtual time, layered on the
// servers' incremental stepping API (serve::Server::step_until): each
// round picks the global minimum among pending trace arrivals, migration
// completions, the next rebalance tick and every chip's next internal
// event, processes cluster-level events at that instant in a fixed order
// (migration completions by shard id, then rebalance ticks, then arrivals
// in trace order), and advances every chip to it. Driving one chip this
// way is bit-identical to serve::Server::run_trace — with a single chip
// every request is home, no interconnect is charged and no migration ever
// fires, so the cluster degenerates to today's server exactly.
//
// Routing model: a client holds a (briefly stale) placement view and
// sends each request directly to the chip it believes owns the shard.
//  * Home hit — the common case — costs nothing extra.
//  * While a shard is mid-migration its requests are held at the old home
//    and forwarded to the new home when the move commits (the shard
//    blocks briefly; migration is not free).
//  * For `placement_propagation` cycles after a move commits, clients
//    still address the old home, which forwards — so every migration also
//    pays a tail of cross-chip request traffic.
// Forwarded requests and responses, and shard moves themselves, pay
// route_cycles/route_energy_pj; the counters surface in ClusterSnapshot
// (cross-shard traffic share, interconnect energy, migration totals,
// cluster-wide Jain index over per-chip served ops).
//
// Determinism contract: placement, routing and migration are pure
// functions of the trace, the config and the seed, computed in virtual
// time. Host threads only parallelize arithmetic inside each chip's
// dispatches, so responses and every snapshot field are bit-identical for
// any host thread count — the same discipline as serve::Server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/rebalancer.hpp"
#include "cluster/topology.hpp"
#include "serve/metrics.hpp"
#include "serve/qos_table.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "util/units.hpp"

namespace apim::cluster {

struct ClusterConfig {
  std::size_t chips = 4;
  /// Placement granularity: tenants hash onto this many shards. More
  /// shards = finer rebalancing moves.
  std::size_t shards = 64;

  Topology topology = Topology::kStar;
  InterconnectConfig interconnect{};
  RebalanceConfig rebalance{};

  /// Pin shard -> chip, overriding the consistent-hash default.
  std::map<std::size_t, std::size_t> placement_overrides;

  /// Per-chip serving configuration (replicated across chips).
  serve::ServerConfig server{};
  /// Per-chip health fault schedules for tests/benches that fault
  /// specific chips; a present entry replaces server.health.fault_schedule
  /// on that chip only.
  std::map<std::size_t, std::vector<serve::health::DomainFaultEvent>>
      chip_fault_schedules;

  /// Cycles after a migration commits during which clients still address
  /// the old home chip (stale placement view) and pay forwarding.
  util::Cycles placement_propagation = 4000;
  /// Payload bits moved per shard migration.
  std::uint64_t shard_bits = 1u << 15;

  /// Seeds the consistent-hash ring.
  std::uint64_t seed = 2017;

  /// Optional structured event stream (serve/trace.hpp), shared by the
  /// cluster loop (chip = -1 events: routing, migrations, interconnect
  /// legs) and every chip's server (chip = i events). nullptr disables
  /// tracing with zero behavior change.
  serve::trace::EventLog* trace = nullptr;

  /// Cluster of N full chips: per-chip serving resources from the chip
  /// model, interconnect beat width from its off-chip link.
  [[nodiscard]] static ClusterConfig from_chip(const core::ApimChip& chip,
                                               std::size_t chips);
};

/// A chip-local serve::Response plus the routing that wrapped it. `resp`
/// is byte-for-byte what the executing chip's server produced (arrival
/// adjusted for forwarding delay when the request crossed chips).
struct ClusterResponse {
  serve::Response resp;
  std::size_t shard = 0;
  /// Chip the client addressed (its placement view at arrival).
  std::size_t addressed_chip = 0;
  /// Chip that executed the request (its home when it was admitted).
  std::size_t exec_chip = 0;
  /// True when the request paid interconnect (forwarded or held by a
  /// migration).
  bool cross_chip = false;
  /// True when a mid-migration hold delayed the request.
  bool held_by_migration = false;
  /// Forward + return hops paid.
  std::uint64_t hops = 0;
  /// Arrival at the cluster edge (resp.arrival includes forward delay).
  util::Cycles edge_arrival = 0;
  /// resp.completion plus the return-path delay to the addressed chip.
  util::Cycles edge_completion = 0;
  /// Interconnect energy charged to this request (forward + return).
  double interconnect_energy_pj = 0.0;

  [[nodiscard]] util::Cycles edge_latency_cycles() const noexcept {
    return edge_completion - edge_arrival;
  }
};

struct ClusterSnapshot {
  /// Per-chip serve metrics, indexed by chip.
  std::vector<serve::MetricsSnapshot> chips;

  std::uint64_t requests = 0;
  std::uint64_t total_ops = 0;
  /// Requests/ops that paid interconnect (forwarded or migration-held).
  std::uint64_t cross_chip_requests = 0;
  std::uint64_t cross_chip_ops = 0;
  std::uint64_t held_requests = 0;
  /// cross_chip_ops / total_ops.
  double cross_shard_traffic_share = 0.0;

  /// Request/response forwarding totals.
  std::uint64_t forward_hops = 0;
  util::Cycles interconnect_cycles = 0;
  double interconnect_energy_pj = 0.0;

  /// Shard migrations: load-driven moves and health evacuations.
  std::uint64_t migrations = 0;
  std::uint64_t evacuations = 0;
  util::Cycles migration_cycles = 0;
  double migration_energy_pj = 0.0;

  /// Jain fairness of served ops across chips: 1.0 = perfectly even,
  /// 1/chips = one chip took everything.
  double chip_jain = 0.0;

  /// Final shard assignment and per-shard load EWMA, indexed by shard.
  std::vector<std::size_t> placement;
  std::vector<double> shard_load;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config, serve::QosTable table = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Execute an open-loop trace (arrival cycles set) to completion across
  /// the cluster. Returns one response per request, in trace order.
  /// Bit-identical for every host thread count; deterministic for a fixed
  /// config + trace. One run per Cluster instance: a second call throws
  /// std::logic_error before touching any state, in every build type.
  std::vector<ClusterResponse> run_trace(std::vector<serve::Request> trace);

  [[nodiscard]] ClusterSnapshot snapshot() const;

  [[nodiscard]] const ClusterConfig& config() const noexcept;

  /// Live shard -> chip assignment (initial until run_trace migrates).
  [[nodiscard]] const Placement& placement() const noexcept;

  /// The shard a tenant hashes to under this cluster's shard count.
  [[nodiscard]] std::size_t shard_of(const std::string& app) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace apim::cluster
