#include "cluster/topology.hpp"

#include <cstdint>

namespace apim::cluster {

std::uint64_t hop_count(std::size_t a, std::size_t b) {
  return a == b ? 0 : 2;
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
