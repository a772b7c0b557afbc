// FNV-1a over 64-bit words, and the energy model the pinned-digest tests
// price ops with. gtest-free, like the other test harnesses.
//
// kDigestEnergy prices ops with literals, not with
// device::EnergyModel::paper_defaults(): paper_defaults() comes out of a
// VTEAM ODE integration through std::pow, so its last bits depend on the C
// library, and a digest over it would pin that library as well as the
// models under test. The literals are distinct small integers: every
// energy a pinned run forms is then an integer count times an integer
// price, summed exactly below 2^53, so a pin holds whatever order a
// model adds its terms in and moves only when an event count (or a
// value or a cycle) does. Distinct primes keep the event classes apart:
// charging an event to the wrong class changes the sum.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "device/energy_model.hpp"

namespace apim::digest {

inline constexpr device::EnergyModel kDigestEnergy{
    .e_input_on_pj = 5.0,
    .e_input_off_pj = 1.0,
    .e_switch_pj = 3.0,
    .e_init_pj = 7.0,
    .e_write_driver_pj = 11.0,
    .e_read_pj = 13.0,
    .e_maj_pj = 17.0,
    .e_interconnect_bit_pj = 19.0,
    .e_cycle_overhead_pj = 23.0,
};

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(std::uint64_t{v}); }
  void mix(unsigned v) { mix(std::uint64_t{v}); }
  void mix(const std::string& s) {
    mix(std::uint64_t{s.size()});
    for (const char c : s) mix(std::uint64_t{static_cast<unsigned char>(c)});
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace apim::digest
