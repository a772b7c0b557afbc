// Reliability policy surface of an ApimDevice.
//
// The policy decides how much the device pays to notice and survive
// faults; the fault campaign sweeps it to draw the protection-vs-overhead
// tradeoff (bench/ext_fault_campaign.cpp):
//
//  * kOff            — faults corrupt results silently; zero overhead.
//  * kDetectOnly     — mod-3 residue check on every exact multiply/add
//                      result (reliability/residue.hpp); mismatches are
//                      counted but results are not corrected.
//  * kDetectAndRepair— residue check + escalation ladder on mismatch:
//                      re-execute on the next redundant processing block
//                      (domain), up to kMaxRetries; when every domain
//                      disagrees with the residue, count an escalation and
//                      flag the device degraded. Combined with the BIST
//                      spare-row repair that the campaign applies before
//                      execution, this is the full detect-and-repair
//                      stack. Residue checking needs exact arithmetic, so
//                      campaigns drop approximation to exact mode when
//                      unrepaired faults remain (the ladder's middle
//                      rung).
//  * kTripleVote     — every op executes on three domains concurrently and
//                      the results are combined by a bitwise 2-of-3
//                      majority at the sense amplifiers: same latency
//                      (blocks run in parallel) plus a vote step, but 3x
//                      the op energy. Works under approximation (all
//                      copies compute the same approximate value), which
//                      residue checking cannot.
#pragma once

#include "reliability/fault_state.hpp"

namespace apim::reliability {

enum class ReliabilityPolicy : std::uint8_t {
  kOff,
  kDetectOnly,
  kDetectAndRepair,
  kTripleVote,
};

[[nodiscard]] constexpr const char* to_string(ReliabilityPolicy p) noexcept {
  switch (p) {
    case ReliabilityPolicy::kOff: return "off";
    case ReliabilityPolicy::kDetectOnly: return "detect";
    case ReliabilityPolicy::kDetectAndRepair: return "repair";
    case ReliabilityPolicy::kTripleVote: return "vote";
  }
  return "?";
}

/// Redundant domains tried after the primary under kDetectAndRepair.
inline constexpr unsigned kMaxRetries = 2;

/// Per-device reliability configuration. Lives inside core::ApimConfig so
/// device clones (apps::parallel_map workers) carry the fault state and
/// policy with them.
struct ReliabilityConfig {
  ReliabilityPolicy policy = ReliabilityPolicy::kOff;
  LaneFaultTable faults{};

  /// True when the reliability layer can neither perturb results nor
  /// charge costs — the zero-overhead fast path.
  [[nodiscard]] bool passive() const noexcept {
    return policy == ReliabilityPolicy::kOff && faults.empty();
  }
};

}  // namespace apim::reliability
