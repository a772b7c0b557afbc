// Hot-shard rebalancing in virtual time.
//
// The router reports every admitted request's (shard, ops) here; the
// rebalancer keeps a per-shard EWMA of ops per rebalance interval and, at
// each tick, decides migrations:
//
//  * Evacuations — a shard whose home chip has left service (every fault
//    domain quarantined, serve/health.hpp) must move regardless of load.
//    This is how the health layer's quarantine composes with placement.
//  * Hot-shard migrations — when the hottest serving chip carries more
//    than kImbalanceFactor times the mean serving-chip load, its hottest
//    movable shard migrates to the least-loaded serving chip, provided the
//    move strictly reduces the pairwise imbalance (no ping-pong) and the
//    shard is not in its post-migration cooldown. At most one such
//    migration starts per tick.
//
// Modeled on the hot-tree migration in plasgroup/bp-forest: load is
// tracked continuously, decisions happen at coarse ticks, and a migration
// is worth it only when the skew exceeds its cost. All decisions are pure
// functions of admitted traffic and tick order — deterministic for fixed
// seeds and independent of host thread count. Ties break toward the
// lowest shard/chip id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace apim::cluster {

/// Migrate only when the hottest serving chip's load exceeds this multiple
/// of the mean serving-chip load.
inline constexpr double kImbalanceFactor = 1.25;
/// Shards below this EWMA (ops per interval) never migrate: noise floor.
inline constexpr double kMinShardLoad = 1.0;
/// Ticks a shard sits out after migrating (anti-ping-pong hysteresis).
inline constexpr std::uint32_t kCooldownTicks = 2;

struct RebalanceConfig {
  /// Master switch for load-driven migration: off = static placement (the
  /// bench baseline). Evacuations off quarantined chips still run — they
  /// are forced by health, not load.
  bool enabled = true;
  /// Virtual cycles between rebalance decisions.
  util::Cycles interval = 25000;
  /// EWMA smoothing: weight of the newest interval's ops count.
  double ewma_alpha = 0.4;
};

struct MigrationDecision {
  std::size_t shard = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  /// True when forced by the home chip leaving service.
  bool evacuation = false;
};

class Rebalancer {
 public:
  /// Throws std::invalid_argument, in every build type, when
  /// `config.ewma_alpha` lies outside (0, 1].
  Rebalancer(std::size_t shards, RebalanceConfig config);

  /// Called by the router for every admitted request.
  void note_admitted(std::size_t shard, std::size_t ops);

  /// One rebalance decision round. `home` is the live shard assignment,
  /// `chip_serving[c]` whether chip c can serve at all, `shard_locked[s]`
  /// whether shard s is already mid-migration (never re-picked).
  [[nodiscard]] std::vector<MigrationDecision> tick(
      const std::vector<std::size_t>& home,
      const std::vector<bool>& chip_serving,
      const std::vector<bool>& shard_locked);

  /// Per-shard load EWMA (ops per interval), indexed by shard.
  [[nodiscard]] const std::vector<double>& load() const noexcept {
    return ewma_;
  }

 private:
  RebalanceConfig cfg_;
  std::vector<double> ewma_;
  std::vector<std::uint64_t> window_;   ///< Ops admitted since last tick.
  std::vector<std::uint32_t> cooldown_;  ///< Remaining sit-out ticks.
};

}  // namespace apim::cluster
