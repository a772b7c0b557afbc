#include "cluster/topology.hpp"

#include <cassert>
#include <cstdint>

namespace apim::cluster {

namespace {

/// Smallest side length whose square grid holds `chips` nodes.
std::size_t mesh_side(std::size_t chips) {
  std::size_t side = 1;
  while (side * side < chips) ++side;
  return side;
}

}  // namespace

std::uint64_t hop_count(Topology topology, std::size_t chips, std::size_t a,
                        std::size_t b) {
  assert(a < chips && b < chips);
  if (a == b) return 0;
  switch (topology) {
    case Topology::kStar:
      return 2;  // a -> switch -> b.
    case Topology::kMesh2D: {
      const std::size_t side = mesh_side(chips);
      const std::size_t ax = a % side;
      const std::size_t ay = a / side;
      const std::size_t bx = b % side;
      const std::size_t by = b / side;
      const std::size_t dx = ax > bx ? ax - bx : bx - ax;
      const std::size_t dy = ay > by ? ay - by : by - ay;
      return static_cast<std::uint64_t>(dx + dy);
    }
  }
  return 2;
}

util::Cycles route_cycles(const InterconnectConfig& cfg, std::uint64_t hops,
                          std::uint64_t bits) {
  if (hops == 0) return 0;
  const std::uint64_t link = cfg.link_bits == 0 ? 1 : cfg.link_bits;
  const std::uint64_t beats = (bits + link - 1) / link;
  return hops * (cfg.hop_latency_cycles + beats);
}

double route_energy_pj(const InterconnectConfig& cfg, std::uint64_t hops,
                       std::uint64_t bits) {
  return static_cast<double>(hops) * static_cast<double>(bits) *
         cfg.pj_per_bit_hop;
}

}  // namespace apim::cluster
