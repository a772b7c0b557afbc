// Per-application relax-level table (paper Sections 4.1/4.3).
//
// The framework tunes the approximation level OFFLINE per application
// with the AccuracyTuner and applies it at runtime when the application
// is detected. The serving runtime's copy of that idea: build_qos_table
// runs each registered workload through the tuner once, and the scheduler
// looks the tenant's relax level up per request. A tenant that misses its
// QoS while serving is escalated — pinned to exact — until the operator
// rebuilds the table (Server handles the escalation itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tuner.hpp"

namespace apim::serve {

struct QosTableEntry {
  unsigned relax_bits = 0;    ///< Tuned setting; 0 = exact fallback.
  double expected_loss = 0.0; ///< Offline-measured loss at that setting.
  bool met_qos = true;        ///< False when even exact failed offline.
  bool escalated = false;     ///< Runtime QoS miss pinned this app to exact.
};

class QosTable {
 public:
  /// Throws std::invalid_argument, in every build type, for relax_bits
  /// above 64: the widest product an op makes, and the most a Response
  /// records (serve/request.hpp).
  void set(const std::string& app, QosTableEntry entry) {
    if (entry.relax_bits > 64)
      throw std::invalid_argument("QosTable: relax_bits must be <= 64");
    entries_[app] = entry;
  }

  /// Relax level to serve `app` at: the tuned setting, 0 when the app is
  /// unknown (conservative exact fallback) or has been escalated.
  [[nodiscard]] unsigned relax_for(const std::string& app) const {
    const auto it = entries_.find(app);
    if (it == entries_.end() || it->second.escalated) return 0;
    return it->second.relax_bits;
  }

  /// Pin `app` to exact after a runtime QoS miss. Unknown apps are
  /// inserted as escalated so the miss is remembered.
  void escalate(const std::string& app) { entries_[app].escalated = true; }

  [[nodiscard]] bool escalated(const std::string& app) const {
    const auto it = entries_.find(app);
    return it != entries_.end() && it->second.escalated;
  }

  [[nodiscard]] const std::map<std::string, QosTableEntry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, QosTableEntry> entries_;
};

/// Tune every app in `apps` (names from apps::make_application) on a
/// `elements`-element seeded workload and record the chosen relax level.
/// Unknown names get an exact entry. This is the offline step; it charges
/// host time, not simulated serving time.
[[nodiscard]] QosTable build_qos_table(std::span<const std::string> apps,
                                       std::size_t elements,
                                       std::uint64_t seed,
                                       const core::AccuracyTuner& tuner = core::AccuracyTuner());

}  // namespace apim::serve
