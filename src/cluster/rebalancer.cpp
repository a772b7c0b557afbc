#include "cluster/rebalancer.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace apim::cluster {

Rebalancer::Rebalancer(std::size_t shards, RebalanceConfig config)
    : cfg_(config),
      ewma_(shards, 0.0),
      window_(shards, 0),
      cooldown_(shards, 0) {
  if (!(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0))
    throw std::invalid_argument("Rebalancer: ewma_alpha must be in (0, 1]");
}

void Rebalancer::note_admitted(std::size_t shard, std::size_t ops) {
  assert(shard < window_.size());
  window_[shard] += ops;
}

std::vector<MigrationDecision> Rebalancer::tick(
    const std::vector<std::size_t>& home,
    const std::vector<bool>& chip_serving,
    const std::vector<bool>& shard_locked) {
  const std::size_t shards = ewma_.size();
  const std::size_t chips = chip_serving.size();
  assert(home.size() == shards && shard_locked.size() == shards);

  for (std::size_t s = 0; s < shards; ++s) {
    ewma_[s] = cfg_.ewma_alpha * static_cast<double>(window_[s]) +
               (1.0 - cfg_.ewma_alpha) * ewma_[s];
    window_[s] = 0;
    if (cooldown_[s] > 0) --cooldown_[s];
  }

  std::vector<MigrationDecision> out;
  if (chips < 2) return out;

  std::vector<double> chip_load(chips, 0.0);
  for (std::size_t s = 0; s < shards; ++s) chip_load[home[s]] += ewma_[s];

  std::size_t serving_chips = 0;
  double serving_load = 0.0;
  for (std::size_t c = 0; c < chips; ++c) {
    if (!chip_serving[c]) continue;
    ++serving_chips;
    serving_load += chip_load[c];
  }
  if (serving_chips == 0) return out;  // Total failure: nowhere to go.

  // Least-loaded serving chip, recomputed as decisions land so a burst of
  // evacuations spreads instead of piling onto one target.
  const auto coldest = [&](std::size_t excluding) {
    std::size_t best = chips;
    for (std::size_t c = 0; c < chips; ++c) {
      if (!chip_serving[c] || c == excluding) continue;
      if (best == chips || chip_load[c] < chip_load[best]) best = c;
    }
    return best;
  };

  // Evacuations first: quarantined chips shed every shard they hold.
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_locked[s] || chip_serving[home[s]]) continue;
    const std::size_t to = coldest(home[s]);
    if (to == chips) break;
    out.push_back({s, home[s], to, true});
    chip_load[to] += ewma_[s];
    chip_load[home[s]] -= ewma_[s];
  }

  if (!cfg_.enabled) return out;

  // One hot-shard migration per tick (evacuations above are exempt: a
  // dead chip's shards all leave at once).
  const double mean = serving_load / static_cast<double>(serving_chips);
  std::size_t hot = chips;
  for (std::size_t c = 0; c < chips; ++c) {
    if (!chip_serving[c]) continue;
    if (hot == chips || chip_load[c] > chip_load[hot]) hot = c;
  }
  if (hot == chips || chip_load[hot] <= kImbalanceFactor * mean) return out;
  // Hottest movable shard on the hottest chip.
  std::size_t pick = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    if (home[s] != hot || shard_locked[s] || cooldown_[s] > 0) continue;
    if (ewma_[s] < kMinShardLoad) continue;
    if (pick == shards || ewma_[s] > ewma_[pick]) pick = s;
  }
  if (pick == shards) return out;
  const std::size_t to = coldest(hot);
  // Only move if it strictly shrinks the hot/cold gap: the destination
  // must stay below the source even after absorbing the shard.
  if (to == chips || chip_load[to] + ewma_[pick] >= chip_load[hot])
    return out;
  out.push_back({pick, hot, to, false});
  cooldown_[pick] = kCooldownTicks;
  return out;
}

}  // namespace apim::cluster
