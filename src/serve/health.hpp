// Online fault-domain health model of the serving runtime.
//
// A FAULT DOMAIN is one controller command stream — a bank and the lanes
// it broadcasts to (core/chip.hpp). The device layer already knows how to
// notice faults (mod-3 residue checks, retry ladders, march-test BIST,
// reliability/); this header closes the loop at serving time: every
// dispatch's reliability counters feed a per-domain state machine,
//
//   kHealthy --detections >= suspect threshold--> kSuspect
//   kSuspect --clean scrub--> kHealthy
//   any      --escalation or detections >= quarantine threshold or
//             whole-domain failure--> kQuarantined
//   kQuarantined --readmit_clean_scrubs clean re-tests--> kHealthy
//
// and the engine (serve/server.cpp) reacts: suspect domains optionally
// run their traffic at an upgraded reliability policy (DegradeMode),
// quarantined domains stop serving, their in-flight work RELOCATES to
// healthy domains, and a background march-test scrub — scheduled through
// the DRR scheduler as the low-weight system tenant `kScrubTenant` —
// repairs stuck bits by spare-row remap and earns re-admission.
//
// The HealthMonitor holds the layer's own state: one Domain record per
// stream (state machine, counters, flags, re-test timer, device config),
// the sorted fault schedule and its cursor, and the preventive-scrub slot
// and its round-robin cursor. The engine asks it what is due and tells it
// what happened; every reaction (trace events, metrics, aborts,
// relocation) stays in the engine's one transition() helper.
//
// Everything here is a plain value type driven from the single-threaded
// virtual-time engine, so health decisions are bit-identical for every
// host thread count (the repo-wide determinism contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "device/energy_model.hpp"
#include "reliability/fault_state.hpp"
#include "reliability/policy.hpp"
#include "util/units.hpp"

namespace apim::serve::health {

/// Reserved tenant name the background scrubber dispatches under. Its DRR
/// weight (kScrubWeight) is deliberately low: scrubbing steals idle
/// capacity instead of competing with tenant SLOs.
inline constexpr const char* kScrubTenant = "__scrub";
inline constexpr std::uint32_t kScrubWeight = 1;

enum class DomainState : std::uint8_t {
  kHealthy,
  kSuspect,      ///< Detections above threshold; still serving.
  kQuarantined,  ///< Drained: no dispatches until a clean re-test.
};

[[nodiscard]] constexpr const char* to_string(DomainState s) noexcept {
  switch (s) {
    case DomainState::kHealthy: return "healthy";
    case DomainState::kSuspect: return "suspect";
    case DomainState::kQuarantined: return "quarantined";
  }
  return "?";
}

/// What to do with traffic when capacity degrades (suspect domains, or
/// queue capacity shrunk by quarantines).
enum class DegradeMode : std::uint8_t {
  kShed,     ///< Reject what the lost capacity can no longer absorb.
  kBlock,    ///< Head-of-line block arrivals until capacity frees.
  kDegrade,  ///< Like kShed, plus suspect-domain batches execute at the
             ///< upgraded kDegradePolicy.
};

/// Policy suspect-domain batches are upgraded to under kDegrade (only ever
/// upgraded, never downgraded below what the tenant pays for).
inline constexpr reliability::ReliabilityPolicy kDegradePolicy =
    reliability::ReliabilityPolicy::kTripleVote;

/// One scheduled fault injection, applied by the engine at virtual time
/// `at`. The schedule fires with the health layer ON or OFF — that is the
/// chaos A/B: same silicon decay, with and without the immune system.
struct DomainFaultEvent {
  util::Cycles at = 0;
  std::size_t domain = 0;
  enum class Kind : std::uint8_t {
    kSetFaults,  ///< Install `faults` as the domain's fault table.
    kKill,       ///< Whole-domain failure (whole_domain_failure table).
    kClear,      ///< Fabric recovers: empty fault table.
  } kind = Kind::kSetFaults;
  reliability::LaneFaultTable faults{};
};

struct HealthConfig {
  /// Master switch. OFF by default: the engine then behaves bit-identically
  /// to the pre-health runtime (fault schedules still fire, so the chaos
  /// bench can A/B the layer on identical fault injections).
  bool enabled = false;

  DegradeMode mode = DegradeMode::kDegrade;

  /// Residue detections (since the last scrub) that turn a domain suspect.
  std::uint64_t suspect_detections = 8;
  /// Detections that quarantine it outright. Any escalation (an exhausted
  /// retry ladder: the device could not produce a verified result)
  /// quarantines immediately regardless of this threshold.
  std::uint64_t quarantine_detections = 1024;

  /// Preventive scrub: every `scrub_interval` cycles (0 disables) the
  /// engine enqueues one march-test BIST pass over the next serving
  /// domain, round-robin, as a `kScrubTenant` batch through the DRR
  /// scheduler at weight kScrubWeight. The pass marches `scrub_rows`
  /// scratch rows x `scrub_cols` cells on each of the domain's lanes (cost
  /// law: reliability/bist.cpp).
  util::Cycles scrub_interval = 50000;
  std::size_t scrub_rows = 16;
  std::size_t scrub_cols = 128;
  /// Stuck bits one scrub pass can clear by spare-row remap.
  std::size_t spare_bits_per_scrub = 16;

  /// Quarantined-domain repair: off-line re-tests (the domain holds no
  /// serving stream) every `repair_interval` cycles, up to
  /// `max_repair_attempts`; `readmit_clean_scrubs` consecutive clean
  /// passes re-admit the domain.
  util::Cycles repair_interval = 25000;
  unsigned max_repair_attempts = 4;
  unsigned readmit_clean_scrubs = 1;

  /// Times one request may be relocated off a failing domain before the
  /// server gives up and rejects it (bounds livelock under chaos).
  unsigned max_relocations = 4;

  /// Chaos schedule, applied in `at` order (ties: schedule order).
  std::vector<DomainFaultEvent> fault_schedule;
};

/// Result of one march-test scrub pass over a domain.
struct ScrubReport {
  std::size_t stuck_found = 0;    ///< Stuck bits present before the pass.
  std::size_t repaired = 0;       ///< Cleared by spare-row remap.
  bool clean = false;             ///< No stuck bits remain and not dead.
  util::Cycles cycles = 0;        ///< March cost (occupies the stream).
  double energy_pj = 0.0;
};

/// Run one march-test BIST pass over a domain's functional fault table:
/// deterministic cost from the march law, spare-row repair of up to
/// `spare_bits_per_scrub` stuck bits. Transient (soft) faults are
/// invisible to a march — `clean` only certifies the stuck population.
ScrubReport scrub_domain(reliability::LaneFaultTable& faults, bool dead,
                         std::size_t lanes, const HealthConfig& cfg,
                         const device::EnergyModel& em);

/// Catastrophic whole-domain failure table: one stuck output bit on every
/// (lane, redundancy domain) for both units. A SINGLE stuck bit per unit
/// guarantees the mod-3 residue check catches every actually-corrupted
/// result (a one-bit delta is never divisible by 3), so detect-and-repair
/// traffic escalates instead of silently returning garbage — which is
/// exactly the signal the health layer quarantines on.
[[nodiscard]] reliability::LaneFaultTable whole_domain_failure(
    std::size_t lanes, std::size_t domains);

/// What a domain reports (MetricsSnapshot::domains): its state and the
/// counters the monitor keeps as it feeds the state machine.
struct DomainReport {
  DomainState state = DomainState::kHealthy;
  bool dead = false;  ///< Whole-domain failure: never scrubs clean.
  std::uint64_t dispatches = 0;   ///< Batches executed on this domain.
  std::uint64_t detections = 0;   ///< Residue/vote mismatches observed.
  std::uint64_t escalations = 0;  ///< Exhausted retry ladders observed.
  std::uint64_t scrubs = 0;       ///< March-test passes (incl. re-tests).
  std::uint64_t stuck_found = 0;  ///< Stuck bits seen by those passes.
  std::uint64_t repaired_bits = 0;
  std::uint64_t quarantines = 0;   ///< Edges into kQuarantined.
  std::uint64_t readmissions = 0;  ///< Edges out of it.
};

/// One fault domain's record: its report and everything else the engine
/// keeps per stream, in one place.
struct Domain : DomainReport {
  bool busy = false;  ///< A batch or scrub pass holds the stream.
  bool scrub_queued = false;  ///< A scrub pass is queued or in flight.
  unsigned repair_attempts = 0;
  unsigned clean_streak = 0;
  std::uint64_t detections_since_scrub = 0;
  std::optional<util::Cycles> repair_at;  ///< Next off-line re-test.
  /// What the domain's dispatches run with: the server's base config
  /// carrying the domain's own fault table, which the fault schedule and
  /// scrub repairs update in place (domains decay independently).
  core::ApimConfig device{};

  /// A domain serves traffic unless quarantined.
  [[nodiscard]] bool serving() const noexcept {
    return state != DomainState::kQuarantined;
  }
};

/// The fault domains of one server, one record each, the state machine
/// over them and the layer's timers. Owned and driven by the engine, which
/// keeps it in every mode: with the health layer off nothing feeds the
/// machine, so every domain stays kHealthy, no re-test or scrub slot is
/// ever due and only the fault schedule fires. All methods are
/// deterministic functions of the call sequence.
class HealthMonitor {
 public:
  /// `domains` records of `lanes` lanes each, dispatching with `device`.
  HealthMonitor(std::size_t domains, const HealthConfig& cfg,
                const core::ApimConfig& device = {}, std::size_t lanes = 1);

  [[nodiscard]] Domain& domain(std::size_t d) { return doms_[d]; }
  [[nodiscard]] const Domain& domain(std::size_t d) const { return doms_[d]; }
  [[nodiscard]] std::size_t serving_count() const noexcept;
  /// Nothing can ever serve again: no domain serves or awaits a re-test.
  [[nodiscard]] bool stranded() const noexcept;
  /// Every domain's report, in domain order.
  [[nodiscard]] std::vector<DomainReport> reports() const {
    return {doms_.begin(), doms_.end()};
  }

  /// Whole-domain failure: d is dead (never scrubs clean) and quarantined.
  void kill(std::size_t d) {
    doms_[d].dead = true;
    quarantine(d);
  }

  /// One march-test pass over d's fault table, repairing in place.
  ScrubReport march(std::size_t d);

  /// Feed one completed dispatch's reliability counters. Escalations (or
  /// the detection threshold) quarantine; detections alone may suspect.
  void on_dispatch(std::size_t d, std::uint64_t detections,
                   std::uint64_t escalations);

  /// Force-quarantine (whole-domain failure, unverified batch).
  void quarantine(std::size_t d);

  /// Feed one scrub/re-test result. Returns true when the pass re-admitted
  /// a quarantined domain.
  bool on_scrub(std::size_t d, const ScrubReport& r);

  /// Quarantined and out of repair attempts: no further re-test is
  /// scheduled (the domain is retired for this serve).
  [[nodiscard]] bool gave_up(std::size_t d) const {
    return doms_[d].state == DomainState::kQuarantined &&
           doms_[d].repair_attempts >= cfg_.max_repair_attempts;
  }

  // -- Timers ---------------------------------------------------------------

  /// Earliest of the next scheduled fault (at `now` once due) and, with
  /// the layer on, the armed re-tests; nullopt when none is pending.
  [[nodiscard]] std::optional<util::Cycles> next_timer(util::Cycles now) const;

  /// Install the next scheduled fault due by `now` on its domain's fault
  /// table and return it; nullptr when none is due. Events fire in `at`
  /// order, ties in schedule order. A kill installs whole_domain_failure.
  const DomainFaultEvent* apply_next_fault(util::Cycles now);

  /// Arm d's next off-line re-test `repair_interval` after `now`, unless
  /// it serves or the monitor gave up on it.
  void schedule_retest(std::size_t d, util::Cycles now);

  /// Whether d's re-test is due by `now`; a due re-test is disarmed.
  bool take_retest(std::size_t d, util::Cycles now);

  /// The next preventive-scrub slot; nullopt when scrubbing is off (the
  /// layer off or scrub_interval 0) or every serving domain has a pass
  /// queued.
  [[nodiscard]] std::optional<util::Cycles> scrub_slot() const;

  /// Scrubbing is on and its slot has come by `now`.
  [[nodiscard]] bool scrub_due(util::Cycles now) const noexcept {
    return cfg_.enabled && cfg_.scrub_interval > 0 && now >= next_scrub_at_;
  }

  /// Take the slot due by `now`: the slot moves past `now` (missed slots
  /// are dropped, not replayed: replaying them would livelock a saturated
  /// server) and the next serving domain without a pass, round-robin, is
  /// marked queued and returned. nullopt when no slot is due or every
  /// serving domain has a pass queued.
  std::optional<std::size_t> take_scrub_slot(util::Cycles now);

 private:
  HealthConfig cfg_;  ///< Its fault_schedule sorted by `at`.
  std::size_t lanes_;
  std::vector<Domain> doms_;
  std::size_t next_fault_ = 0;
  util::Cycles next_scrub_at_;
  std::size_t scrub_cursor_ = 0;
};

}  // namespace apim::serve::health
