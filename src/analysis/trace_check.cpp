#include "analysis/trace_check.hpp"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace apim::analysis {

namespace {

using serve::trace::Event;
using serve::trace::EventKind;
using serve::trace::EventLog;
using serve::trace::Meta;

// Fault-domain states, mirroring serve::health::DomainState. The verifier
// keeps its own copy so the replay stays an independent re-implementation
// of the contract rather than a call back into the engine.
constexpr std::uint8_t kHealthy = 0;
constexpr std::uint8_t kSuspect = 1;
constexpr std::uint8_t kQuarantined = 2;

const char* state_name(std::uint8_t s) {
  switch (s) {
    case kHealthy:
      return "healthy";
    case kSuspect:
      return "suspect";
    case kQuarantined:
      return "quarantined";
    default:
      return "unknown";
  }
}

/// Independent recomputation of the interconnect cost law
/// (cluster/topology.hpp): star hop counts (2 between distinct chips),
/// latency hops * (hop_latency + ceil(bits / link_bits)), energy
/// hops * bits * pj_per_bit_hop. Kept expression-identical so doubles
/// compare bit-exactly.
std::uint64_t expected_hops(std::int64_t a, std::int64_t b) {
  return a == b ? 0 : 2;  // a -> switch -> b.
}

std::uint64_t expected_route_cycles(const Meta& m, std::uint64_t hops,
                                    std::uint64_t bits) {
  if (hops == 0) return 0;
  const std::uint64_t link = m.link_bits == 0 ? 1 : m.link_bits;
  const std::uint64_t beats = (bits + link - 1) / link;
  return hops * (m.hop_latency_cycles + beats);
}

double expected_route_pj(const Meta& m, std::uint64_t hops,
                         std::uint64_t bits) {
  return static_cast<double>(hops) * static_cast<double>(bits) *
         m.pj_per_bit_hop;
}

/// Per-request lifecycle phase (request-causality FSM).
enum class Phase : std::uint8_t {
  kNone,        ///< Never admitted.
  kQueued,      ///< Admitted (or re-queued), waiting to seal.
  kSealed,      ///< Member of a closed batch in the scheduler.
  kDispatched,  ///< Member of an in-flight dispatch.
  kDone,        ///< Finalized (terminal event seen).
};

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kNone:
      return "unadmitted";
    case Phase::kQueued:
      return "queued";
    case Phase::kSealed:
      return "sealed";
    case Phase::kDispatched:
      return "dispatched";
    case Phase::kDone:
      return "finalized";
  }
  return "unknown";
}

struct ReqState {
  Phase phase = Phase::kNone;
  bool admitted = false;
  // Admitted batch shape; relax tracks QoS escalation resets.
  std::uint8_t op = 0;
  unsigned width = 0;
  unsigned relax = 0;
  std::uint8_t policy = 0;
};

struct TenantShare {
  std::uint64_t queued = 0;     ///< Sealed batches waiting in the scheduler.
  std::uint64_t in_flight = 0;  ///< Dispatches holding a stream.
};

struct MigrationState {
  std::int64_t from = -1;
  std::int64_t to = -1;
  std::int64_t started_at_event = -1;
};

class Checker {
 public:
  explicit Checker(const EventLog& log) : log_(log), meta_(log.meta) {}

  Report run() {
    if (log_.overflowed()) {
      error("trace-overflow", -1,
            "event log hit capacity and dropped events; the replay below "
            "covers only the retained prefix",
            "raise the EventLog capacity for this run");
    }
    const std::vector<Event>& events = log_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      idx_ = static_cast<std::int64_t>(i);
      check_event(events[i]);
    }
    if (!log_.overflowed()) finish();
    return std::move(report_);
  }

 private:
  void error(const char* rule, std::int64_t pc, std::string message,
             std::string hint = {}) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = rule;
    d.pc = pc;
    d.message = std::move(message);
    d.hint = std::move(hint);
    report_.add(std::move(d));
  }

  [[nodiscard]] std::uint64_t weight_of(const std::string& app) const {
    const auto it = meta_.weights.find(app);
    const std::uint64_t w =
        it == meta_.weights.end() ? meta_.default_weight : it->second;
    return w == 0 ? 1 : w;
  }

  [[nodiscard]] static std::string req_tag(const Event& e) {
    std::ostringstream os;
    os << "request " << e.req;
    if (e.chip >= 0) os << " on chip " << e.chip;
    return os.str();
  }

  // -- clock-regression ----------------------------------------------------

  void check_clock(const Event& e) {
    // Response legs are assembled after the cluster loop, stamped with the
    // edge completion they delayed — the one documented exemption.
    if (e.kind == EventKind::kResponseLeg) return;
    const auto it = last_at_.find(e.chip);
    if (it != last_at_.end() && e.at < it->second) {
      std::ostringstream os;
      os << "virtual clock regressed on "
         << (e.chip < 0 ? "the cluster stream" : "chip " + std::to_string(e.chip))
         << ": " << serve::trace::to_string(e.kind) << " at t=" << e.at
         << " after t=" << it->second;
      error("clock-regression", idx_, os.str());
    }
    if (it == last_at_.end() || e.at > it->second) last_at_[e.chip] = e.at;
  }

  // -- request-causality / batch-homogeneity -------------------------------

  ReqState& req(const Event& e, std::int64_t id) {
    return reqs_[{e.chip, id}];
  }

  void bad_phase(const Event& e, std::int64_t id, Phase got,
                 const char* wanted) {
    std::ostringstream os;
    os << serve::trace::to_string(e.kind) << " for request " << id;
    if (e.chip >= 0) os << " on chip " << e.chip;
    os << " in phase " << phase_name(got) << " (expected " << wanted << ")";
    error("request-causality", idx_, os.str());
  }

  void check_members_shape(const Event& e) {
    for (const std::uint64_t m : e.members) {
      const auto id = static_cast<std::int64_t>(m);
      const ReqState& r = req(e, id);
      if (!r.admitted) continue;  // Causality already flagged it.
      if (r.op != e.op || r.width != e.width || r.relax != e.relax ||
          r.policy != e.policy) {
        std::ostringstream os;
        os << serve::trace::to_string(e.kind) << " batch shape (op="
           << static_cast<int>(e.op) << " width=" << e.width
           << " relax=" << e.relax << " policy=" << static_cast<int>(e.policy)
           << ") differs from member " << id << " (op="
           << static_cast<int>(r.op) << " width=" << r.width
           << " relax=" << r.relax << " policy=" << static_cast<int>(r.policy)
           << ")";
        error("batch-homogeneity", idx_, os.str(),
              "batches must coalesce same-shape, same-relax requests only");
      }
    }
  }

  void advance_members(const Event& e, Phase want, Phase next) {
    for (const std::uint64_t m : e.members) {
      const auto id = static_cast<std::int64_t>(m);
      ReqState& r = req(e, id);
      if (r.phase != want) {
        bad_phase(e, id, r.phase, phase_name(want));
        continue;
      }
      r.phase = next;
    }
  }

  void terminal(const Event& e) {
    ReqState& r = req(e, e.req);
    const bool needs_admission =
        e.kind == EventKind::kServe || e.kind == EventKind::kExpire;
    if (r.phase == Phase::kDone) {
      std::ostringstream os;
      os << "duplicate terminal " << serve::trace::to_string(e.kind)
         << " for already-finalized " << req_tag(e);
      error("request-conservation", idx_, os.str());
      return;
    }
    if (e.kind == EventKind::kServe && r.phase != Phase::kDispatched) {
      bad_phase(e, e.req, r.phase, "dispatched");
    }
    if (e.kind == EventKind::kExpire && r.phase != Phase::kSealed) {
      bad_phase(e, e.req, r.phase, "sealed");
    }
    if (e.kind == EventKind::kInvalid && r.phase != Phase::kNone) {
      bad_phase(e, e.req, r.phase, "unadmitted");
    }
    if (needs_admission && !r.admitted) {
      std::ostringstream os;
      os << serve::trace::to_string(e.kind) << " for " << req_tag(e)
         << " that was never admitted";
      error("request-conservation", idx_, os.str());
    }
    r.phase = Phase::kDone;
  }

  // -- drr credit ledger ---------------------------------------------------

  void ledger(const Event& e) {
    std::uint64_t& deficit = deficits_[{e.chip, e.app}];
    switch (e.kind) {
      case EventKind::kCreditGrant: {
        if (meta_.quantum_ops > 0) {
          const std::uint64_t want = meta_.quantum_ops * weight_of(e.app);
          if (e.amount != want) {
            std::ostringstream os;
            os << "credit grant of " << e.amount << " ops to '" << e.app
               << "' != quantum x weight = " << want;
            error("drr-credit", idx_, os.str());
          }
        }
        deficit += e.amount;
        break;
      }
      case EventKind::kCreditSpend: {
        if (e.amount > deficit) {
          std::ostringstream os;
          os << "credit spend of " << e.amount << " ops by '" << e.app
             << "' exceeds its balance of " << deficit;
          error("drr-credit", idx_, os.str(),
                "a pick's ops must be covered by granted credit");
          deficit = 0;
        } else {
          deficit -= e.amount;
        }
        if (e.idle_reset) deficit = 0;  // Going idle forfeits credit.
        break;
      }
      case EventKind::kCreditRefund:
        deficit += e.amount;
        break;
      default:
        return;
    }
    if (deficit != e.deficit_after) {
      std::ostringstream os;
      os << serve::trace::to_string(e.kind) << " for '" << e.app
         << "' declares deficit " << e.deficit_after << " but the ledger says "
         << deficit;
      error("drr-credit", idx_, os.str());
      deficit = e.deficit_after;  // Re-sync; report each break once.
    }
  }

  // -- drr-share-bound -----------------------------------------------------

  [[nodiscard]] bool share_tracked() const {
    return meta_.fair_share && meta_.streams > 0;
  }

  void check_share_bound(const Event& e) {
    // Replays the scheduler's pick-time eligibility from post-spend state:
    // the spend already moved this tenant's head batch out of the queue,
    // so "holds all queued work" and every other tenant's eligibility read
    // identically to what the scheduler saw.
    std::map<std::string, TenantShare>& chip = shares_[e.chip];
    TenantShare& t = chip[e.app];
    std::uint64_t total_weight = 0;
    std::uint64_t total_queued = 0;
    for (const auto& [name, u] : chip) {
      if (name == e.app || u.queued > 0 || u.in_flight > 0)
        total_weight += weight_of(name);
      total_queued += u.queued;
    }
    const auto cap = [&](const std::string& name,
                         const TenantShare&) -> std::uint64_t {
      if (total_weight == 0) return meta_.streams;
      const std::uint64_t share =
          static_cast<std::uint64_t>(meta_.streams) * weight_of(name) /
          total_weight;
      return share == 0 ? 1 : share;
    };
    const bool sole = total_queued == t.queued;
    if (t.in_flight >= cap(e.app, t) && !sole) {
      // Spill-over: legal only when nobody else could take the stream.
      bool other_eligible = false;
      for (const auto& [name, u] : chip) {
        if (name == e.app) continue;
        if (u.queued > 0 && u.in_flight < cap(name, u)) {
          other_eligible = true;
          break;
        }
      }
      if (other_eligible) {
        std::ostringstream os;
        os << "dispatch for '" << e.app << "' takes stream "
           << (t.in_flight + 1) << " beyond its weighted cap of "
           << cap(e.app, t) << " while another tenant has queued work under "
           << "cap";
        error("drr-share-bound", idx_, os.str(),
              "DRR may exceed a share cap only as spill-over onto an "
              "otherwise-idle stream");
      }
    }
    t.in_flight += 1;
  }

  // -- stream-overlap / health-fsm -----------------------------------------

  void check_dispatch_domain(const Event& e) {
    if (e.domain < 0) return;
    const std::pair<std::int32_t, std::int64_t> key{e.chip, e.domain};
    if (busy_[key]) {
      std::ostringstream os;
      os << "dispatch on busy domain " << e.domain << " of chip " << e.chip;
      error("stream-overlap", idx_, os.str(),
            "a stream holds one dispatch until complete/abort");
    }
    busy_[key] = true;
    if (health_state(e) == kQuarantined) {
      std::ostringstream os;
      os << "dispatch on quarantined domain " << e.domain << " of chip "
         << e.chip;
      error("health-fsm", idx_, os.str(),
            "quarantined domains hold no stream until repair re-admits them");
    }
  }

  void check_release_domain(const Event& e) {
    if (e.domain < 0) return;
    const std::pair<std::int32_t, std::int64_t> key{e.chip, e.domain};
    if (!busy_[key]) {
      std::ostringstream os;
      os << serve::trace::to_string(e.kind) << " on idle domain " << e.domain
         << " of chip " << e.chip;
      error("stream-overlap", idx_, os.str());
    }
    busy_[key] = false;
  }

  std::uint8_t& health_state(const Event& e) {
    return domain_state_[{e.chip, e.domain}];
  }

  void check_health(const Event& e) {
    std::uint8_t& state = health_state(e);
    if (e.state_from != state) {
      std::ostringstream os;
      os << "health transition on domain " << e.domain << " of chip "
         << e.chip << " claims source state " << state_name(e.state_from)
         << " but the domain is " << state_name(state);
      error("health-fsm", idx_, os.str());
    }
    const bool legal =
        (e.state_from == kHealthy && e.state_to == kSuspect) ||
        (e.state_from == kSuspect && e.state_to == kHealthy) ||
        (e.state_from == kHealthy && e.state_to == kQuarantined) ||
        (e.state_from == kSuspect && e.state_to == kQuarantined) ||
        (e.state_from == kQuarantined && e.state_to == kHealthy);
    if (!legal) {
      std::ostringstream os;
      os << "illegal health transition " << state_name(e.state_from) << " -> "
         << state_name(e.state_to) << " on domain " << e.domain << " of chip "
         << e.chip;
      error("health-fsm", idx_, os.str(),
            "legal arcs: healthy<->suspect, healthy/suspect->quarantined, "
            "quarantined->healthy (repair)");
    }
    state = e.state_to;
  }

  void check_scrub(const Event& e) {
    const std::uint8_t state = health_state(e);
    if (!e.offline && state == kQuarantined) {
      std::ostringstream os;
      os << "online scrub completed on quarantined domain " << e.domain
         << " of chip " << e.chip;
      error("health-fsm", idx_, os.str());
    }
    if (e.offline && state != kQuarantined) {
      std::ostringstream os;
      os << "offline repair ran on " << state_name(state) << " domain "
         << e.domain << " of chip " << e.chip
         << " (repairs only target quarantined domains)";
      error("health-fsm", idx_, os.str());
    }
  }

  // -- interconnect-charge / commit-order ----------------------------------

  void check_route(const Event& e, bool check_energy) {
    if (meta_.chips == 0) return;  // No cluster header: nothing to recompute.
    const std::uint64_t hops = expected_hops(e.from, e.to);
    if (e.hops != hops) {
      std::ostringstream os;
      os << serve::trace::to_string(e.kind) << " from chip " << e.from
         << " to chip " << e.to << " charges " << e.hops
         << " hops; the topology says " << hops;
      error("interconnect-charge", idx_, os.str());
    }
    const std::uint64_t cycles = expected_route_cycles(meta_, hops, e.bits);
    if (e.cycles != cycles) {
      std::ostringstream os;
      os << serve::trace::to_string(e.kind) << " charges " << e.cycles
         << " cycles for " << hops << " hops x " << e.bits
         << " bits; the cost law hops*(hop_latency+ceil(bits/link_bits)) "
         << "says " << cycles;
      error("interconnect-charge", idx_, os.str());
    }
    if (check_energy) {
      const double pj = expected_route_pj(meta_, hops, e.bits);
      if (e.energy_pj != pj) {
        std::ostringstream os;
        os << serve::trace::to_string(e.kind) << " charges " << e.energy_pj
           << " pJ; hops*bits*pj_per_bit_hop says " << pj;
        error("interconnect-charge", idx_, os.str());
      }
    }
  }

  void check_migration_start(const Event& e) {
    auto [it, inserted] = migrations_.try_emplace(e.shard);
    if (!inserted) {
      std::ostringstream os;
      os << "migration started on shard " << e.shard
         << " while a move begun at event " << it->second.started_at_event
         << " still holds its lock";
      error("commit-order", idx_, os.str());
    }
    it->second = MigrationState{e.from, e.to, idx_};
  }

  void check_migration_commit(const Event& e) {
    const auto it = migrations_.find(e.shard);
    if (it == migrations_.end()) {
      std::ostringstream os;
      os << "migration commit on shard " << e.shard << " without a start";
      error("commit-order", idx_, os.str());
    } else {
      if (it->second.from != e.from || it->second.to != e.to) {
        std::ostringstream os;
        os << "migration commit on shard " << e.shard << " routes "
           << e.from << "->" << e.to << " but its start routed "
           << it->second.from << "->" << it->second.to;
        error("commit-order", idx_, os.str());
      }
      migrations_.erase(it);
    }
    if (have_last_commit_ && last_commit_at_ == e.at &&
        e.shard <= last_commit_shard_) {
      std::ostringstream os;
      os << "commits at t=" << e.at << " out of shard order: shard "
         << e.shard << " after shard " << last_commit_shard_;
      error("commit-order", idx_, os.str(),
            "same-instant commits must be processed shard-ascending");
    }
    have_last_commit_ = true;
    last_commit_at_ = e.at;
    last_commit_shard_ = e.shard;
  }

  // -- dispatcher ----------------------------------------------------------

  void check_event(const Event& e) {
    check_clock(e);
    switch (e.kind) {
      case EventKind::kAdmit: {
        ReqState& r = req(e, e.req);
        if (r.phase != Phase::kNone || r.admitted) {
          bad_phase(e, e.req, r.phase, "unadmitted");
        }
        r.phase = Phase::kQueued;
        r.admitted = true;
        r.op = e.op;
        r.width = e.width;
        r.relax = e.relax;
        r.policy = e.policy;
        if (e.capacity != 0 && e.queue_depth > e.capacity) {
          std::ostringstream os;
          os << "admission to depth " << e.queue_depth
             << " exceeds the effective capacity " << e.capacity;
          error("admission-bound", idx_, os.str());
        }
        break;
      }
      case EventKind::kBatchSeal:
        check_members_shape(e);
        advance_members(e, Phase::kQueued, Phase::kSealed);
        if (share_tracked()) shares_[e.chip][e.app].queued += 1;
        break;
      case EventKind::kDispatch:
        check_members_shape(e);
        advance_members(e, Phase::kSealed, Phase::kDispatched);
        if (share_tracked()) check_share_bound(e);
        check_dispatch_domain(e);
        break;
      case EventKind::kComplete:
      case EventKind::kAbort:
        check_release_domain(e);
        if (share_tracked()) {
          TenantShare& t = shares_[e.chip][e.app];
          if (t.in_flight > 0) t.in_flight -= 1;
        }
        break;
      case EventKind::kServe:
      case EventKind::kReject:
      case EventKind::kExpire:
      case EventKind::kInvalid:
        terminal(e);
        break;
      case EventKind::kCreditGrant:
      case EventKind::kCreditRefund:
        ledger(e);
        break;
      case EventKind::kCreditSpend:
        ledger(e);
        if (share_tracked()) {
          TenantShare& t = shares_[e.chip][e.app];
          if (t.queued > 0) t.queued -= 1;
        }
        break;
      case EventKind::kQosEscalate: {
        ReqState& r = req(e, e.req);
        if (r.phase != Phase::kDispatched) {
          bad_phase(e, e.req, r.phase, "dispatched");
        }
        r.phase = Phase::kQueued;
        r.relax = e.relax;  // Escalation re-queues at exact.
        break;
      }
      case EventKind::kRelocate: {
        ReqState& r = req(e, e.req);
        if (r.phase != Phase::kDispatched) {
          bad_phase(e, e.req, r.phase, "dispatched");
        }
        r.phase = Phase::kQueued;
        break;
      }
      case EventKind::kHealth:
        check_health(e);
        break;
      case EventKind::kScrub:
        check_scrub(e);
        break;
      case EventKind::kClusterAdmit:
        break;  // Routing choice; charged legs carry the invariants.
      case EventKind::kForward:
      case EventKind::kResponseLeg:
        check_route(e, /*check_energy=*/true);
        break;
      case EventKind::kMigrationStart:
        check_route(e, /*check_energy=*/false);  // Energy lands at commit.
        check_migration_start(e);
        break;
      case EventKind::kMigrationCommit:
        check_route(e, /*check_energy=*/true);
        check_migration_commit(e);
        break;
    }
  }

  // End-of-log conservation: only sound on a complete log.
  void finish() {
    for (const auto& [key, r] : reqs_) {
      if (!r.admitted || r.phase == Phase::kDone) continue;
      std::ostringstream os;
      os << "request " << key.second;
      if (key.first >= 0) os << " on chip " << key.first;
      os << " was admitted but never reached a terminal event (last phase: "
         << phase_name(r.phase) << ")";
      error("request-conservation", -1, os.str(),
            "every admitted request must serve, reject, expire or invalidate");
    }
    for (const auto& [shard, m] : migrations_) {
      std::ostringstream os;
      os << "migration on shard " << shard << " (started at event "
         << m.started_at_event << ") never committed; the shard lock leaks";
      error("commit-order", -1, os.str());
    }
  }

  const EventLog& log_;
  const Meta& meta_;
  Report report_;
  std::int64_t idx_ = -1;

  std::map<std::int32_t, util::Cycles> last_at_;
  std::map<std::pair<std::int32_t, std::int64_t>, ReqState> reqs_;
  std::map<std::pair<std::int32_t, std::string>, std::uint64_t> deficits_;
  std::map<std::int32_t, std::map<std::string, TenantShare>> shares_;
  std::map<std::pair<std::int32_t, std::int64_t>, bool> busy_;
  std::map<std::pair<std::int32_t, std::int64_t>, std::uint8_t> domain_state_;
  std::map<std::int64_t, MigrationState> migrations_;
  bool have_last_commit_ = false;
  util::Cycles last_commit_at_ = 0;
  std::int64_t last_commit_shard_ = -1;
};

}  // namespace

Report check_serving_trace(const serve::trace::EventLog& log) {
  return Checker(log).run();
}

std::string verify_trace(const serve::trace::EventLog& log) {
  const Report r = check_serving_trace(log);
  return r.empty() ? std::string{} : r.format();
}

}  // namespace apim::analysis
