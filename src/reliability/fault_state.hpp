// Functional fault state of an APIM device's compute lanes.
//
// The physical failure modes live in the crossbar (stuck-at cells injected
// into CrossbarBlock, endurance wear); applications, however, execute
// through the word-level functional models, which never touch a simulated
// fabric. LaneFaultTable is the bridge: the fault campaign
// (reliability/campaign.hpp) samples defects on real BlockedCrossbar
// instances — one per modeled lane — and projects every stuck scratch cell
// that the multiply/add schedules would traverse onto the corresponding
// OUTPUT BIT of the functional unit. ApimDevice then applies the
// projection to every raw result, so a stuck product-register cell
// corrupts every product computed on that lane, exactly like
// FaultInjection.MagicNorOnFaultyOutputCell does at the bit level.
//
// The table is a plain value type carried inside ApimConfig, so
// apps::parallel_map worker clones ("same config, fresh stats") inherit
// the fault state and campaign results are bit-exact for every host
// thread count. Transient faults are therefore decided by a STATELESS
// hash of (seed, op index, domain, attempt) rather than a stateful RNG:
// re-executions draw fresh noise, yet any replay of the same op sequence
// sees the same faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace apim::reliability {

/// One stuck output bit of a functional unit on one lane/domain.
struct StuckBit {
  unsigned bit = 0;
  bool value = false;
};

/// Stuck output bits of the multiplier and the adder of one (lane, domain).
/// A "domain" is one of the structurally identical processing blocks a
/// lane can run its schedule on (primary = 0); retry and voting execute on
/// higher domains, whose defects are independent.
struct UnitFaults {
  std::vector<StuckBit> mul_bits;
  std::vector<StuckBit> add_bits;
};

class LaneFaultTable {
 public:
  LaneFaultTable() = default;
  LaneFaultTable(std::size_t lanes, std::size_t domains)
      : lanes_(lanes), domains_(domains == 0 ? 1 : domains),
        table_(lanes * (domains == 0 ? 1 : domains)) {}

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::size_t domains() const noexcept { return domains_; }

  /// True when the table can never perturb a result: no stuck bits and a
  /// zero transient rate. ApimDevice's fast path short-circuits on this.
  [[nodiscard]] bool empty() const noexcept {
    return stuck_count_ == 0 && transient_rate_ == 0.0;
  }

  [[nodiscard]] std::size_t stuck_count() const noexcept {
    return stuck_count_;
  }

  /// Throw std::out_of_range, in every build type, for a lane or domain
  /// outside the table's shape or a bit beyond a 64-bit word.
  void add_mul_stuck(std::size_t lane, std::size_t domain, unsigned bit,
                     bool value) {
    unit(lane, domain, bit).mul_bits.push_back(StuckBit{bit, value});
    ++stuck_count_;
  }
  void add_add_stuck(std::size_t lane, std::size_t domain, unsigned bit,
                     bool value) {
    unit(lane, domain, bit).add_bits.push_back(StuckBit{bit, value});
    ++stuck_count_;
  }

  /// Spare-row repair of up to `max_bits` stuck bits, in a deterministic
  /// order (lane-major, multiplier before adder, oldest injection first):
  /// the march-test scrub (serve/health.hpp) calls this to model remapping
  /// the defective scratch rows onto spares, which clears the projected
  /// functional fault exactly as BlockedCrossbar::remap_row does at the
  /// bit level. Returns how many bits were cleared. Transient state is
  /// untouched — soft errors have no cell to remap.
  std::size_t repair_stuck(std::size_t max_bits) {
    std::size_t repaired = 0;
    for (UnitFaults& f : table_) {
      for (std::vector<StuckBit>* bits : {&f.mul_bits, &f.add_bits}) {
        while (!bits->empty() && repaired < max_bits) {
          bits->erase(bits->begin());
          ++repaired;
        }
      }
      if (repaired >= max_bits) break;
    }
    stuck_count_ -= repaired;
    return repaired;
  }

  /// Transient (soft) bit-flip model: each executed op independently
  /// flips one uniformly chosen output bit with probability `rate`.
  void set_transient(double rate, std::uint64_t seed) {
    transient_rate_ = rate;
    transient_seed_ = seed;
  }
  [[nodiscard]] double transient_rate() const noexcept {
    return transient_rate_;
  }

  /// Lane an op lands on: ops round-robin over the modeled lanes.
  [[nodiscard]] std::size_t lane_of(std::uint64_t op_index) const noexcept {
    return lanes_ <= 1 ? 0 : static_cast<std::size_t>(op_index %
                                                      lanes_);
  }

  /// Corrupt `value` (an `out_bits`-wide result) with the stuck bits of
  /// (lane, domain) and one possible transient flip. `attempt`
  /// distinguishes re-executions of the same logical op so a retry draws
  /// fresh transient noise.
  [[nodiscard]] std::uint64_t apply(std::size_t lane, std::size_t domain,
                                    bool is_mul, std::uint64_t value,
                                    unsigned out_bits,
                                    std::uint64_t op_index,
                                    unsigned attempt) const {
    if (lanes_ != 0) {
      const UnitFaults& f = table_[lane * domains_ + domain % domains_];
      const std::vector<StuckBit>& bits = is_mul ? f.mul_bits : f.add_bits;
      for (const StuckBit& s : bits) {
        if (s.bit >= out_bits) continue;
        const std::uint64_t mask = std::uint64_t{1} << s.bit;
        value = s.value ? (value | mask) : (value & ~mask);
      }
    }
    if (transient_rate_ > 0.0) {
      // Stateless per-(op, domain, attempt) draw; splitmix64 both mixes
      // and advances the key.
      std::uint64_t key = transient_seed_ ^
                          (op_index * 0x9E3779B97F4A7C15ull) ^
                          ((static_cast<std::uint64_t>(domain) * 8 +
                            attempt + 1) *
                           0xD1B54A32D192ED03ull) ^
                          (is_mul ? 0x8BB84B93962EACC9ull : 0);
      const std::uint64_t draw = util::splitmix64(key);
      const double u =
          static_cast<double>(draw >> 11) * 0x1.0p-53;  // [0, 1)
      if (u < transient_rate_) {
        const unsigned bit = static_cast<unsigned>(util::splitmix64(key) %
                                                   out_bits);
        value ^= std::uint64_t{1} << bit;
      }
    }
    return value;
  }

 private:
  UnitFaults& unit(std::size_t lane, std::size_t domain, unsigned bit) {
    if (lane >= lanes_ || domain >= domains_ || bit >= 64)
      throw std::out_of_range("LaneFaultTable: stuck bit outside the table");
    return table_[lane * domains_ + domain];
  }

  std::size_t lanes_ = 0;
  std::size_t domains_ = 1;
  std::vector<UnitFaults> table_;
  std::size_t stuck_count_ = 0;
  double transient_rate_ = 0.0;
  std::uint64_t transient_seed_ = 0;
};

}  // namespace apim::reliability
