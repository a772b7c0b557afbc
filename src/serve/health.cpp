#include "serve/health.hpp"

#include <algorithm>

namespace apim::serve::health {

ScrubReport scrub_domain(reliability::LaneFaultTable& faults, bool dead,
                         std::size_t lanes, const HealthConfig& cfg,
                         const device::EnergyModel& em) {
  ScrubReport r;
  // March cost mirrors reliability/bist.cpp's law: each scanned row costs
  // W0 R0 W1 R1 plus a restore write = 3 driver cycles + 2 SA readback
  // cycles. The pass covers `scrub_rows` scratch rows on every lane of
  // the domain (the bank's controller marches its tiles in lockstep, so
  // rows scale with lanes while cycles are charged per marched row).
  const std::size_t rows = cfg.scrub_rows * std::max<std::size_t>(1, lanes);
  r.cycles = static_cast<util::Cycles>(rows) * 5;
  const double cells =
      static_cast<double>(rows) * static_cast<double>(cfg.scrub_cols);
  // Per cell: W0 and W1 each flip roughly every other cell (charge the
  // flipping write), the restore write usually does not, plus two reads.
  r.energy_pj = cells * (2.0 * em.write_energy_pj(true) +
                         em.write_energy_pj(false) + 2.0 * em.e_read_pj);

  // The march sees every stuck cell in the scanned band; spare-row remap
  // clears up to the configured budget of projected stuck bits.
  r.stuck_found = faults.stuck_count();
  r.repaired = faults.repair_stuck(cfg.spare_bits_per_scrub);
  r.clean = !dead && faults.stuck_count() == 0;
  return r;
}

reliability::LaneFaultTable whole_domain_failure(std::size_t lanes,
                                                 std::size_t domains) {
  reliability::LaneFaultTable t(lanes, domains);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t dom = 0; dom < std::max<std::size_t>(1, domains);
         ++dom) {
      t.add_mul_stuck(lane, dom, 1, true);
      t.add_add_stuck(lane, dom, 1, true);
    }
  }
  return t;
}

HealthMonitor::HealthMonitor(std::size_t domains, const HealthConfig& cfg,
                             const core::ApimConfig& device, std::size_t lanes)
    : cfg_(cfg),
      lanes_(lanes),
      next_scrub_at_(cfg.scrub_interval) {
  Domain dom;
  dom.device = device;
  doms_.assign(domains, dom);
  std::stable_sort(cfg_.fault_schedule.begin(), cfg_.fault_schedule.end(),
                   [](const DomainFaultEvent& a, const DomainFaultEvent& b) {
                     return a.at < b.at;
                   });
}

std::size_t HealthMonitor::serving_count() const noexcept {
  std::size_t n = 0;
  for (const Domain& d : doms_)
    if (d.serving()) ++n;
  return n;
}

bool HealthMonitor::stranded() const noexcept {
  for (const Domain& d : doms_)
    if (d.serving() || d.repair_at) return false;
  return true;
}

ScrubReport HealthMonitor::march(std::size_t d) {
  Domain& dom = doms_[d];
  return scrub_domain(dom.device.reliability.faults, dom.dead, lanes_, cfg_,
                      dom.device.energy);
}

void HealthMonitor::on_dispatch(std::size_t d, std::uint64_t detections,
                                std::uint64_t escalations) {
  Domain& m = doms_[d];
  ++m.dispatches;
  m.detections += detections;
  m.escalations += escalations;
  m.detections_since_scrub += detections;
  if (m.state == DomainState::kQuarantined) return;
  if (escalations > 0 ||
      m.detections_since_scrub >= cfg_.quarantine_detections) {
    quarantine(d);
    return;
  }
  if (m.state == DomainState::kHealthy &&
      m.detections_since_scrub >= cfg_.suspect_detections) {
    m.state = DomainState::kSuspect;
  }
}

void HealthMonitor::quarantine(std::size_t d) {
  Domain& m = doms_[d];
  if (m.state == DomainState::kQuarantined) return;
  m.state = DomainState::kQuarantined;
  ++m.quarantines;
  m.repair_attempts = 0;
  m.clean_streak = 0;
}

bool HealthMonitor::on_scrub(std::size_t d, const ScrubReport& r) {
  Domain& m = doms_[d];
  ++m.scrubs;
  m.stuck_found += r.stuck_found;
  m.repaired_bits += r.repaired;
  m.detections_since_scrub = 0;
  if (m.state == DomainState::kQuarantined) {
    ++m.repair_attempts;
    if (!r.clean) {
      m.clean_streak = 0;
      return false;
    }
    ++m.clean_streak;
    if (m.clean_streak < cfg_.readmit_clean_scrubs) return false;
    m.state = DomainState::kHealthy;
    ++m.readmissions;
    m.repair_attempts = 0;
    m.clean_streak = 0;
    return true;
  }
  if (r.clean) {
    m.state = DomainState::kHealthy;  // A clean pass clears suspicion.
  } else {
    // Unrepairable stuck population: drain the domain and keep repairing
    // off-line rather than serving degraded results.
    quarantine(d);
  }
  return false;
}

std::optional<util::Cycles> HealthMonitor::next_timer(util::Cycles now) const {
  std::optional<util::Cycles> next;
  if (next_fault_ < cfg_.fault_schedule.size())
    next = std::max(cfg_.fault_schedule[next_fault_].at, now);
  if (!cfg_.enabled) return next;
  for (const Domain& dom : doms_)
    if (dom.repair_at && (!next || *dom.repair_at < *next))
      next = dom.repair_at;
  return next;
}

const DomainFaultEvent* HealthMonitor::apply_next_fault(util::Cycles now) {
  if (next_fault_ == cfg_.fault_schedule.size() ||
      cfg_.fault_schedule[next_fault_].at > now) {
    return nullptr;
  }
  const DomainFaultEvent& e = cfg_.fault_schedule[next_fault_++];
  reliability::LaneFaultTable& faults =
      doms_[e.domain].device.reliability.faults;
  switch (e.kind) {
    case DomainFaultEvent::Kind::kSetFaults: faults = e.faults; break;
    case DomainFaultEvent::Kind::kClear: faults = {}; break;
    case DomainFaultEvent::Kind::kKill:
      // Cover every redundancy domain: the vote needs three, the retry
      // ladder kMaxRetries + 1.
      faults = whole_domain_failure(
          lanes_, std::max<std::size_t>(3, reliability::kMaxRetries + 1));
      break;
  }
  return &e;
}

void HealthMonitor::schedule_retest(std::size_t d, util::Cycles now) {
  if (doms_[d].serving() || gave_up(d)) return;
  doms_[d].repair_at = now + cfg_.repair_interval;
}

bool HealthMonitor::take_retest(std::size_t d, util::Cycles now) {
  Domain& dom = doms_[d];
  if (!dom.repair_at || *dom.repair_at > now) return false;
  dom.repair_at.reset();
  return true;
}

std::optional<util::Cycles> HealthMonitor::scrub_slot() const {
  if (!cfg_.enabled || cfg_.scrub_interval == 0) return std::nullopt;
  for (const Domain& dom : doms_)
    if (dom.serving() && !dom.scrub_queued) return next_scrub_at_;
  return std::nullopt;
}

std::optional<std::size_t> HealthMonitor::take_scrub_slot(util::Cycles now) {
  if (!scrub_due(now)) return std::nullopt;
  while (next_scrub_at_ <= now) next_scrub_at_ += cfg_.scrub_interval;
  for (std::size_t i = 0; i < doms_.size(); ++i) {
    const std::size_t d = (scrub_cursor_ + i) % doms_.size();
    Domain& dom = doms_[d];
    if (!dom.serving() || dom.scrub_queued) continue;
    scrub_cursor_ = d + 1;
    dom.scrub_queued = true;
    return d;
  }
  return std::nullopt;
}

}  // namespace apim::serve::health
