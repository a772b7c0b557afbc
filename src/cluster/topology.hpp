// Inter-chip interconnect topology and cost model.
//
// The paper's intra-tile interconnect (Figure 3(a)) is a configurable
// block-to-block crossbar link whose cost magic::MagicEngine already
// charges per row moved. A cluster of chips generalizes the same idea one
// level up: chips are nodes on a package/board fabric, and any request or
// shard that crosses chips pays per-hop latency plus per-bit energy. The
// fabric is a star: every chip is one hop from a central switch, so any two
// chips are two hops apart (a host-attached multi-drop board, like the
// PIM-base host driver).
//
// The model is deliberately simple and fully deterministic: no contention,
// no queuing on links. Forwarding cost in cycles is
//   hops * (hop_latency_cycles + ceil(bits / link_bits))
// (per-hop switch traversal plus store-and-forward serialization of the
// payload over a link_bits-wide link), and energy is
//   hops * bits * pj_per_bit_hop.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/units.hpp"

namespace apim::cluster {

struct InterconnectConfig {
  /// Switch/router traversal latency charged per hop.
  util::Cycles hop_latency_cycles = 24;
  /// Link width in bits: one serialization beat moves this many bits.
  /// The default is one crossbar row of the default chip
  /// (core::ChipGeometry::cols): the paper's block-to-block interconnect
  /// (Figure 3(a)) moves a full row per hop inside a tile, and the
  /// chip-to-chip link keeps that beat width.
  std::size_t link_bits = 128;
  /// Energy per bit per hop (SerDes + wire). Order-of-magnitude typical
  /// for short-reach chip-to-chip links; dwarfs the sub-pJ MAGIC ops, so
  /// staying on the home chip matters.
  double pj_per_bit_hop = 2.0;
};

/// Hop count between chips `a` and `b`: 0 on the same chip, else 2
/// (a -> switch -> b).
[[nodiscard]] std::uint64_t hop_count(std::size_t a, std::size_t b);

/// Cycles to move `bits` over `hops` hops (0 when hops == 0).
[[nodiscard]] util::Cycles route_cycles(const InterconnectConfig& cfg,
                                        std::uint64_t hops,
                                        std::uint64_t bits);

/// Energy in pJ to move `bits` over `hops` hops.
[[nodiscard]] double route_energy_pj(const InterconnectConfig& cfg,
                                     std::uint64_t hops, std::uint64_t bits);

}  // namespace apim::cluster
