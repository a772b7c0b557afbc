#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "arith/compare_units.hpp"
#include "quality/qos.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/scheduler.hpp"
#include "serve/trace.hpp"
#include "util/bitops.hpp"

namespace apim::serve {

ServerConfig ServerConfig::from_chip(const core::ApimChip& chip) {
  ServerConfig cfg;
  cfg.streams = chip.command_streams();
  cfg.lanes_per_stream = chip.lanes_per_stream();
  cfg.device = chip.make_config();
  // Health-layer scrub geometry follows the chip: march the per-block
  // scratch rows, repair by remapping into the spare rows (two functional
  // output bits — one per unit — clear per spare row).
  cfg.health.scrub_rows = chip.geometry().scratch_rows_per_block;
  cfg.health.scrub_cols = chip.geometry().cols;
  cfg.health.spare_bits_per_scrub = chip.geometry().spare_rows_per_block * 2;
  return cfg;
}

namespace {

/// Every completion is scored against the paper's numeric criterion,
/// mean relative error at most 10% (Section 4.1): served values are raw
/// op results whatever the app. Requests carry no criterion of their own.
constexpr quality::QosSpec kServedQos = quality::QosSpec::numeric();

/// Host-exact golden value of one op, for the completion-time QoS check.
/// Operands clamp to the word width exactly as ApimDevice does.
double golden_value(OpKind op, unsigned width, std::uint64_t a,
                    std::uint64_t b) {
  const std::uint64_t cap = util::mask_n(width);
  const std::uint64_t ca = std::min(a, cap);
  const std::uint64_t cb = std::min(b, cap);
  switch (op) {
    case OpKind::kMultiply:
      return static_cast<double>(ca) * static_cast<double>(cb);
    case OpKind::kVectorAdd:
      return static_cast<double>(ca) + static_cast<double>(cb);
    case OpKind::kCompare:
      return static_cast<double>(ca < cb   ? arith::kCmpLt
                                 : ca == cb ? arith::kCmpEq
                                            : arith::kCmpGt);
    case OpKind::kPopcount:
      return static_cast<double>(util::popcount(ca));
  }
  return 0.0;
}

SchedulerConfig scheduler_config(const ServerConfig& cfg) {
  SchedulerConfig s;
  s.fair_share = cfg.fair_share;
  s.streams = cfg.streams;
  s.quantum_ops = cfg.batch_op_budget();
  s.weights = cfg.tenant_weights;
  if (cfg.health.enabled)
    s.weights[health::kScrubTenant] = health::kScrubWeight;
  s.trace = cfg.trace;
  s.trace_chip = cfg.trace_chip;
  return s;
}

/// Checked in every build type: execute_batch refuses zero
/// lanes_per_stream, with no stream or no queue slot requests would stay
/// pending forever (the conservation contract), a fault event for a
/// domain the server does not have would be dropped, so a chaos run would
/// inject fewer faults than configured, and a batch's request count or a
/// request's relocations past 65 535 would not fit its Response field.
ServerConfig validated(ServerConfig cfg) {
  if (cfg.streams == 0)
    throw std::invalid_argument("Server: streams must be >= 1");
  if (cfg.lanes_per_stream == 0)
    throw std::invalid_argument("Server: lanes_per_stream must be >= 1");
  if (cfg.queue_capacity == 0)
    throw std::invalid_argument("Server: queue_capacity must be >= 1");
  // A batch holds at most batch_op_budget() requests: each has an op.
  if (cfg.batch_op_budget() >
      std::numeric_limits<decltype(Response::batch_requests)>::max()) {
    throw std::invalid_argument("Server: batch_op_budget() must be <= 65535");
  }
  if (cfg.health.max_relocations >
      std::numeric_limits<decltype(Response::relocations)>::max()) {
    throw std::invalid_argument(
        "Server: health.max_relocations must be <= 65535");
  }
  for (const health::DomainFaultEvent& e : cfg.health.fault_schedule) {
    if (e.domain >= cfg.streams) {
      throw std::invalid_argument(
          "Server: fault schedule names a domain out of range");
    }
  }
  return cfg;
}

}  // namespace

/// One request's full scheduler state: the engine's only copy of it. The
/// response carries the rest (serve/request.hpp): its id from staging on,
/// the relax level, the escalation and, through its status, whether the
/// request has finalized.
struct PendingReq {
  Request req;  ///< Operands are freed by release_finished() once final.
  Response resp;

  [[nodiscard]] bool finalized() const noexcept {
    return resp.status != RequestStatus::kPending;
  }
};

static_assert(sizeof(PendingReq) == 168,
              "one Request and one Response per staged request and nothing "
              "else");

/// Every staged request, indexed by id, in fixed chunks of kChunkRecords
/// records. A record is built in place when it is staged, never moves (a
/// PendingReq& stays valid while later requests stage) and is destroyed
/// with the table, so staging n requests allocates ceil(n / kChunkRecords)
/// chunks and the doublings of the chunk list, and nothing per request.
class RequestTable {
 public:
  /// A chunk of 512 records is 84 KiB: few chunks for a long trace, and
  /// little held by a server that stages a few requests.
  static constexpr std::size_t kChunkRecords = 512;

  RequestTable() = default;
  RequestTable(const RequestTable&) = delete;
  RequestTable& operator=(const RequestTable&) = delete;
  ~RequestTable() {
    for (std::uint64_t id = 0; id < size_; ++id) std::destroy_at(slot(id));
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] PendingReq& operator[](std::uint64_t id) { return *slot(id); }
  [[nodiscard]] const PendingReq& operator[](std::uint64_t id) const {
    return *slot(id);
  }

  /// Build the next record in place; its id is the old size().
  PendingReq& emplace_back() {
    if (size_ == chunks_.size() * kChunkRecords)
      chunks_.push_back(std::make_unique<Chunk>());
    PendingReq& p = *std::construct_at(slot(size_));
    ++size_;
    return p;
  }

 private:
  /// Room for kChunkRecords records. The union keeps Chunk's constructor
  /// and destructor from touching them; the table builds and destroys
  /// each one.
  struct Chunk {
    Chunk() {}
    ~Chunk() {}
    union {
      PendingReq records[kChunkRecords];
    };
  };

  [[nodiscard]] PendingReq* slot(std::uint64_t id) const {
    return &chunks_[id / kChunkRecords]->records[id % kChunkRecords];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint64_t size_ = 0;
};

/// The engine: the deterministic virtual-time scheduler shared by both
/// driving modes, owning the config, the QoS table and the metrics.
/// Single-threaded by design, dispatches included (serve/executor.hpp), so
/// the event order — and therefore every timestamp and metric — is
/// independent of the host worker count.
///
/// Fault domains: each stream is one fault domain, with one record
/// (health::Domain, held by the HealthMonitor) in every mode. Each domain
/// dispatches with its own device config, so a fault schedule's decay stays
/// local to the stream it hit. With the health layer OFF nothing feeds the
/// state machine and every domain stays healthy and serving. With it ON,
/// dispatch reliability counters feed the HealthMonitor, scrub batches ride
/// the DRR scheduler, quarantined domains drain (in-flight work relocates)
/// and re-earn admission through off-line re-tests.
struct Server::Impl {
  Impl(ServerConfig cfg, QosTable table)
      : cfg_(std::move(cfg)),
        table_(std::move(table)),
        metrics_(cfg_.total_lanes(), cfg_.streams),
        batcher_(cfg_.batch_window, cfg_.batch_op_budget()),
        sched_(scheduler_config(cfg_)),
        monitor_(cfg_.streams, cfg_.health, cfg_.device,
                 cfg_.lanes_per_stream) {
    if (health_on()) metrics_.record_capacity(0, cfg_.streams);
    // First engine on a shared log fills the serve-side header (every
    // chip of a cluster runs the same ServerConfig).
    if (trace_ != nullptr && trace_->meta.streams == 0) {
      trace::Meta& m = trace_->meta;
      m.streams = cfg_.streams;
      m.lanes = cfg_.lanes_per_stream;
      m.queue_capacity = cfg_.queue_capacity;
      const SchedulerConfig sc = scheduler_config(cfg_);
      m.fair_share = sc.fair_share;
      m.quantum_ops = std::max<std::uint64_t>(1, sc.quantum_ops);
      m.default_weight = std::max<std::uint64_t>(1, sc.default_weight);
      for (const auto& [app, w] : sc.weights)
        m.weights[app] = std::max<std::uint64_t>(1, w);
      m.health = cfg_.health.enabled;
    }
  }

  [[nodiscard]] util::Cycles now() const noexcept { return now_; }

  [[nodiscard]] PendingReq& at(std::uint64_t id) { return reqs_[id]; }

  /// Id the next staged request gets: ids are dense from 0.
  [[nodiscard]] std::uint64_t next_id() const noexcept { return reqs_.size(); }

  /// Stage `req` as an arrival at `req.arrival`; returns its id.
  std::uint64_t stage(Request req) {
    PendingReq& p = reqs_.emplace_back();
    p.resp.id = reqs_.size() - 1;
    p.req = std::move(req);
    arrivals_.emplace(p.req.arrival, p.resp.id);
    return p.resp.id;
  }

  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return batcher_.pending_requests() + sched_.pending_requests();
  }

  /// Advance to next_event_time() and process everything due. Call only
  /// while next_event_time() has a value.
  void step() {
    const std::optional<util::Cycles> next = compute_next_timer();
    if (!next) {
      // No timer: a closed batch waits for a free stream, or the engine
      // is stranded and sheds its queued and blocked work so every
      // request still finalizes (the conservation contract).
      if (monitor_.stranded()) {
        shed_stranded();
      } else {
        try_dispatch();
      }
      return;
    }
    if (*next > now_) now_ = *next;
    complete_due();
    apply_fault_events();
    run_repairs_due();
    maybe_enqueue_scrub();
    admit_due();
    for (ClosedBatch& b : batcher_.close_due(now_))
      enqueue_closed(std::move(b));
    try_dispatch();
  }

  /// Free the operands of every request finalized since the last call; a
  /// finalized request never runs again. Only requests of 2 or more ops
  /// hold a block (serve/request.hpp). Bulk, at points its driver
  /// picks, rather than one by one at finalize: the caller's later
  /// long-lived allocations (response values, response copies) would
  /// otherwise fill the scattered holes and fragment the heap for
  /// whatever runs next.
  void release_finished() {
    for (const std::uint64_t id : finished_)
      reqs_[id].req.operands = decltype(reqs_[id].req.operands)();
    finished_.clear();
  }

  /// Earliest virtual time at which step() makes progress, or nullopt
  /// when the engine is drained. A pure peek: it shares step()'s timer
  /// computation so the two cannot diverge. Without a timer, queued work
  /// is due now when a stream is free to take it, and queued work or
  /// blocked arrivals when the engine is stranded (step() sheds them;
  /// scrub passes go with the tenants' batches).
  [[nodiscard]] std::optional<util::Cycles> next_event_time() const {
    if (const std::optional<util::Cycles> next = compute_next_timer())
      return std::max(*next, now_);
    if (sched_.has_work() && free_domain()) return now_;
    if (monitor_.stranded() && (sched_.has_work() || !arrivals_.empty()))
      return now_;
    return std::nullopt;
  }

  [[nodiscard]] std::size_t serving_count() const {
    return monitor_.serving_count();
  }

  [[nodiscard]] const PendingReq& at(std::uint64_t id) const {
    return reqs_[id];
  }

  /// The metrics' snapshot, with each domain's report when the health
  /// layer is on.
  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot s = metrics_.snapshot();
    if (health_on()) s.domains = monitor_.reports();
    return s;
  }

  [[nodiscard]] const QosTable& table() const noexcept { return table_; }

 private:
  struct InFlight {
    util::Cycles completion = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint64_t> members;
    std::string app;  ///< Tenant charged for the stream (share caps).
    std::size_t domain = 0;  ///< Stream/fault domain it occupies.
    bool scrub = false;      ///< Background march pass, no members.
    /// Results could not be verified (retry ladder exhausted on every
    /// redundancy domain): members re-queue instead of finalizing.
    bool relocate = false;
    std::uint64_t detections = 0;   ///< Dispatch residue detections.
    std::uint64_t escalations = 0;  ///< Dispatch ladder exhaustions.
    health::ScrubReport scrub_report{};
  };

  [[nodiscard]] bool health_on() const noexcept {
    return cfg_.health.enabled;
  }

  /// Lowest free serving domain.
  [[nodiscard]] std::optional<std::size_t> free_domain() const {
    for (std::size_t d = 0; d < cfg_.streams; ++d) {
      const health::Domain& dom = monitor_.domain(d);
      if (!dom.busy && dom.serving()) return d;
    }
    return std::nullopt;
  }

  /// The earliest pending timer event: arrival (when admission is open),
  /// batch close, in-flight completion, scheduled fault, repair or scrub.
  /// nullopt when no timer is armed — step() then falls back to
  /// dispatchable-now work or stranded shedding.
  [[nodiscard]] std::optional<util::Cycles> compute_next_timer() const {
    std::optional<util::Cycles> next = monitor_.next_timer(now_);
    const auto consider = [&](util::Cycles c) {
      if (!next || c < *next) next = c;
    };
    if (!arrivals_.empty() && admission_open())
      consider(arrivals_.top().first);
    if (const auto close = batcher_.next_close()) consider(*close);
    for (const InFlight& f : inflight_) consider(f.completion);
    // Preventive scrub only while tenant work keeps the clock alive;
    // otherwise a drained engine would march forever.
    if (const auto slot = monitor_.scrub_slot(); slot && tenant_work_pending())
      consider(std::max(*slot, now_));
    return next;
  }

  /// Is there tenant work anywhere (arrivals, batching, queued, in
  /// flight)? Health housekeeping timers only tick alongside it.
  [[nodiscard]] bool tenant_work_pending() const {
    if (!arrivals_.empty() || batcher_.pending_requests() > 0 ||
        sched_.pending_requests() > 0) {
      return true;
    }
    for (const InFlight& f : inflight_)
      if (!f.scrub) return true;
    return false;
  }

  /// Admission queue capacity scaled to live serving capacity: losing
  /// domains to quarantine shrinks what the server will accept.
  [[nodiscard]] std::size_t effective_capacity() const {
    const std::size_t serving = monitor_.serving_count();
    if (serving >= cfg_.streams) return cfg_.queue_capacity;
    if (serving == 0) return 0;
    return std::max<std::size_t>(
        1, cfg_.queue_capacity * serving / cfg_.streams);
  }

  /// Under degraded capacity the health mode decides how the shrunken
  /// queue treats overflow: kBlock holds arrivals, anything else sheds.
  [[nodiscard]] AdmissionPolicy effective_admission() const {
    if (monitor_.serving_count() >= cfg_.streams) return cfg_.admission;
    return cfg_.health.mode == health::DegradeMode::kBlock
               ? AdmissionPolicy::kBlock
               : AdmissionPolicy::kReject;
  }

  [[nodiscard]] bool admission_open() const noexcept {
    return effective_admission() == AdmissionPolicy::kReject ||
           queue_depth() < effective_capacity();
  }

  // -- Trace emission (all call sites guard on trace_ != nullptr) -----------

  [[nodiscard]] trace::Event tev(trace::EventKind kind) const {
    trace::Event e;
    e.kind = kind;
    e.at = now_;
    e.chip = cfg_.trace_chip;
    return e;
  }

  /// `status` is terminal: anything but kPending.
  void finalize(PendingReq& p, RequestStatus status, util::Cycles when) {
    assert(!p.finalized() && status != RequestStatus::kPending);
    p.resp.status = status;
    p.resp.arrival = p.req.arrival;
    if (p.resp.completion < when) p.resp.completion = when;
    if (trace_ != nullptr) {
      // The single terminal point of the request-conservation ledger:
      // exactly one serve/reject/expire/invalid event per request.
      trace::Event e = tev(status == RequestStatus::kOk ? trace::EventKind::kServe
                           : status == RequestStatus::kRejected
                               ? trace::EventKind::kReject
                           : status == RequestStatus::kExpired
                               ? trace::EventKind::kExpire
                               : trace::EventKind::kInvalid);
      e.at = when;
      e.req = static_cast<std::int64_t>(p.resp.id);
      e.app = p.req.app;
      e.ops = p.req.operands.size();
      e.relax = p.resp.relax_bits;
      trace_->record(std::move(e));
    }
    switch (status) {
      case RequestStatus::kRejected: metrics_.record_rejected(); break;
      case RequestStatus::kExpired: metrics_.record_expired(); break;
      case RequestStatus::kInvalid: metrics_.record_invalid(); break;
      case RequestStatus::kOk:
        metrics_.record_completed(p.req.app, p.req.arrival, p.resp.completion,
                                  p.resp.escalated, !p.resp.qos.acceptable);
        break;
      case RequestStatus::kPending: break;  // Unreachable.
    }
    // Only a served response reports values, a QoS verdict, a relax level
    // and an escalation.
    if (status != RequestStatus::kOk) {
      p.resp.values.clear();
      p.resp.qos = ServedQos{};
      p.resp.relax_bits = 0;
      p.resp.escalated = false;
    }
    finished_.push_back(p.resp.id);
  }

  void join_batcher(PendingReq& p) {
    const BatchKey key = key_for(p.req, p.resp.relax_bits);
    if (auto closed =
            batcher_.add(p.resp.id, key, p.req.operands.size(), now_))
      enqueue_closed(std::move(*closed));
  }

  /// Single entry point for batches entering the scheduler: tenant seals,
  /// scrub passes, escalation/relocation rejoins and deferred-scrub
  /// re-queues all pass through here, so the trace sees every seal.
  void enqueue_closed(ClosedBatch&& b) {
    if (trace_ != nullptr) {
      trace::Event e = tev(trace::EventKind::kBatchSeal);
      e.app = b.key.app;
      e.op = static_cast<std::uint8_t>(b.key.op);
      e.width = b.key.width;
      e.relax = b.key.relax_bits;
      e.policy = static_cast<std::uint8_t>(b.key.policy);
      e.ops = b.ops;
      e.members = b.members;
      if (b.scrub_domain != kNotScrub) {
        e.scrub = true;
        e.domain = static_cast<std::int64_t>(b.scrub_domain);
      }
      trace_->record(std::move(e));
    }
    sched_.enqueue(std::move(b));
  }

  /// Pop the earliest arrival, counted as submitted: the step admission
  /// and stranded shedding share.
  PendingReq& pop_arrival() {
    PendingReq& p = at(arrivals_.top().second);
    arrivals_.pop();
    metrics_.record_submitted(p.req.arrival);
    return p;
  }

  void admit_due() {
    while (!arrivals_.empty() && arrivals_.top().first <= now_) {
      if (effective_admission() == AdmissionPolicy::kBlock &&
          queue_depth() >= effective_capacity()) {
        break;  // Head-of-line blocks; later arrivals wait behind it.
      }
      PendingReq& p = pop_arrival();
      if (p.req.width < 4 || p.req.width > 32 || p.req.operands.empty()) {
        finalize(p, RequestStatus::kInvalid, now_);
        continue;
      }
      if (queue_depth() >= effective_capacity()) {
        finalize(p, RequestStatus::kRejected, now_);
        continue;
      }
      p.resp.relax_bits =
          static_cast<std::uint8_t>(table_.relax_for(p.req.app));
      if (trace_ != nullptr) {
        trace::Event e = tev(trace::EventKind::kAdmit);
        e.req = static_cast<std::int64_t>(p.resp.id);
        e.app = p.req.app;
        e.op = static_cast<std::uint8_t>(p.req.op);
        e.width = p.req.width;
        e.relax = p.resp.relax_bits;
        e.policy = static_cast<std::uint8_t>(p.req.policy);
        e.ops = p.req.operands.size();
        // Depth including this request; admission checked < capacity, so a
        // clean engine never records depth > capacity.
        e.queue_depth = queue_depth() + 1;
        e.capacity = effective_capacity();
        trace_->record(std::move(e));
      }
      join_batcher(p);
      metrics_.record_queue_depth(queue_depth());
    }
  }

  // -- Fault schedule / health housekeeping ---------------------------------

  /// The monitor installs each due fault; with the layer on, a kill also
  /// takes its domain out of service.
  void apply_fault_events() {
    while (const health::DomainFaultEvent* e = monitor_.apply_next_fault(now_))
      if (e->kind == health::DomainFaultEvent::Kind::kKill && health_on())
        transition(e->domain, [&] { monitor_.kill(e->domain); });
  }

  /// The one place a domain's health changes: a kill, an off-line re-test,
  /// a scrub completion or a dispatch completion. `rule` feeds the state
  /// machine; then, in this order, the scrub pass (if any) and the state
  /// change are traced, the pass is recorded, a domain that left service
  /// drops its in-flight work, a domain that left service or that a
  /// re-test (`offline`) kept quarantined gets its next re-test unless
  /// the monitor gave up on it, and the serving capacity is noted.
  template <class Rule>
  void transition(std::size_t d, Rule rule,
                  const health::ScrubReport* scrub = nullptr,
                  bool offline = false) {
    health::Domain& dom = monitor_.domain(d);
    const health::DomainState before = dom.state;
    const bool was_serving = dom.serving();
    rule();
    if (trace_ != nullptr && scrub != nullptr) {
      trace::Event e = tev(trace::EventKind::kScrub);
      e.domain = static_cast<std::int64_t>(d);
      e.clean = scrub->clean;
      e.offline = offline;
      e.stuck = scrub->stuck_found;
      e.repaired = scrub->repaired;
      e.cycles = scrub->cycles;
      e.energy_pj = scrub->energy_pj;
      trace_->record(std::move(e));
    }
    if (trace_ != nullptr && dom.state != before) {
      trace::Event e = tev(trace::EventKind::kHealth);
      e.domain = static_cast<std::int64_t>(d);
      e.state_from = static_cast<std::uint8_t>(before);
      e.state_to = static_cast<std::uint8_t>(dom.state);
      e.dead = dom.dead;
      trace_->record(std::move(e));
    }
    if (scrub != nullptr) metrics_.record_scrub(*scrub);
    if (was_serving && !dom.serving()) abort_inflight(d);
    if (was_serving || offline) monitor_.schedule_retest(d, now_);
    metrics_.record_capacity(now_, monitor_.serving_count());
  }

  /// Domain d just left service: abort the one dispatch its busy flag
  /// allows (members relocate, a scrub pass is simply dropped).
  void abort_inflight(std::size_t d) {
    for (std::size_t i = 0; i < inflight_.size(); ++i) {
      if (inflight_[i].domain != d) continue;
      const InFlight aborted = release(i, trace::EventKind::kAbort);
      if (!aborted.scrub) relocate_members(aborted.members);
      return;
    }
  }

  /// Re-queue a dead batch's members onto healthy capacity. A request out
  /// of relocation budget is rejected (bounds livelock under chaos).
  void relocate_members(const std::vector<std::uint64_t>& members) {
    std::size_t moved = 0;
    std::size_t moved_ops = 0;
    for (const std::uint64_t id : members) {
      PendingReq& p = at(id);
      if (p.finalized()) continue;
      if (p.resp.relocations >= cfg_.health.max_relocations) {
        metrics_.record_relocation_reject();
        finalize(p, RequestStatus::kRejected, now_);
        continue;
      }
      ++p.resp.relocations;
      ++moved;
      moved_ops += p.req.operands.size();
      p.resp.values.clear();  // Unverified results are withheld.
      if (trace_ != nullptr) {
        trace::Event e = tev(trace::EventKind::kRelocate);
        e.req = static_cast<std::int64_t>(id);
        e.app = p.req.app;
        e.ops = p.req.operands.size();
        trace_->record(std::move(e));
      }
      join_batcher(p);
    }
    if (moved > 0) metrics_.record_relocation(moved, moved_ops);
    metrics_.record_queue_depth(queue_depth());
  }

  /// Off-line re-tests of quarantined domains: they hold no stream, so
  /// repairs are pure timed events.
  void run_repairs_due() {
    for (std::size_t d = 0; d < cfg_.streams; ++d) {
      if (!monitor_.take_retest(d, now_)) continue;
      const health::ScrubReport r = monitor_.march(d);
      transition(d, [&] { monitor_.on_scrub(d, r); }, &r, /*offline=*/true);
    }
  }

  /// Enqueue the next preventive scrub pass (one serving domain,
  /// round-robin) as a kScrubTenant batch through the DRR scheduler.
  void maybe_enqueue_scrub() {
    if (!monitor_.scrub_due(now_) || !tenant_work_pending()) return;
    const std::optional<std::size_t> d = monitor_.take_scrub_slot(now_);
    if (!d) return;
    ClosedBatch b;
    b.key.app = health::kScrubTenant;
    b.ops = cfg_.batch_op_budget();
    b.closed_at = now_;
    b.scrub_domain = *d;
    enqueue_closed(std::move(b));
  }

  /// The monitor finds the engine stranded: drop every queued batch,
  /// scrub passes included, and reject the tenants' requests and the
  /// blocked arrivals so it drains.
  void shed_stranded() {
    while (std::optional<DispatchPick> pick = sched_.next(now_)) {
      if (pick->batch.scrub_domain != kNotScrub) {
        monitor_.domain(pick->batch.scrub_domain).scrub_queued = false;
        continue;
      }
      for (const std::uint64_t id : pick->batch.members) {
        PendingReq& p = at(id);
        if (!p.finalized()) finalize(p, RequestStatus::kRejected, now_);
      }
    }
    while (!arrivals_.empty()) {
      PendingReq& p = pop_arrival();
      finalize(p, RequestStatus::kRejected, std::max(now_, p.req.arrival));
    }
  }

  // -- Dispatch -------------------------------------------------------------

  void try_dispatch() {
    // Scrub passes must run on their target stream; one whose target is
    // busy is held here and re-queued after the loop (re-queueing inside
    // the loop would pick it again immediately — a livelock).
    std::vector<ClosedBatch> deferred_scrubs;
    while (true) {
      const std::optional<std::size_t> domain = free_domain();
      if (!domain) break;
      std::optional<DispatchPick> pick = sched_.next(now_);
      if (!pick) break;
      if (pick->batch.scrub_domain != kNotScrub) {
        health::Domain& target = monitor_.domain(pick->batch.scrub_domain);
        if (!target.serving()) {
          // Target left service since the pass was queued: moot.
          target.scrub_queued = false;
          continue;
        }
        if (target.busy) {
          deferred_scrubs.push_back(std::move(pick->batch));
          continue;
        }
        // The march cost is deterministic, so the repair takes effect at
        // dispatch; the domain is busy with its own pass until completion,
        // so no tenant batch can observe the table mid-scrub.
        InFlight f;
        f.domain = pick->batch.scrub_domain;
        f.scrub_report = monitor_.march(f.domain);
        f.completion = now_ + cfg_.dispatch_cycles + f.scrub_report.cycles;
        f.app = std::move(pick->app);
        f.scrub = true;
        occupy(std::move(f), pick->batch.key, pick->batch.ops);
        continue;
      }
      dispatch_batch(*domain, std::move(*pick));
    }
    for (ClosedBatch& b : deferred_scrubs) enqueue_closed(std::move(b));
  }

  void dispatch_batch(std::size_t d, DispatchPick&& pick) {
    ClosedBatch batch = std::move(pick.batch);

    // Deadline check at dispatch: members whose (absolute) deadline has
    // passed expire without executing — no lanes, no energy. Their ops
    // are refunded to the tenant's deficit: DRR rates EXECUTED ops.
    std::vector<std::uint64_t> live;
    live.reserve(batch.members.size());
    std::size_t expired_ops = 0;
    for (const std::uint64_t id : batch.members) {
      PendingReq& p = at(id);
      if (p.req.deadline != 0 && now_ > p.req.arrival + p.req.deadline) {
        expired_ops += p.req.operands.size();
        finalize(p, RequestStatus::kExpired, now_);
      } else {
        live.push_back(id);
      }
    }
    if (expired_ops > 0) sched_.refund(pick.app, expired_ops, now_);
    if (live.empty()) return;  // Nothing to run; stream stays free.

    std::vector<std::span<const std::pair<std::uint64_t, std::uint64_t>>>
        spans;
    spans.reserve(live.size());
    std::size_t total_ops = 0;
    for (const std::uint64_t id : live) {
      spans.emplace_back(at(id).req.operands);
      total_ops += at(id).req.operands.size();
    }
    // Graceful degradation: a suspect domain's traffic is upgraded to
    // kDegradePolicy (never downgraded).
    BatchKey exec_key = batch.key;
    bool degraded = false;
    if (cfg_.health.mode == health::DegradeMode::kDegrade &&
        monitor_.domain(d).state == health::DomainState::kSuspect &&
        static_cast<int>(exec_key.policy) <
            static_cast<int>(health::kDegradePolicy)) {
      exec_key.policy = health::kDegradePolicy;
      degraded = true;
    }
    BatchExecution exec = execute_batch(spans, exec_key, cfg_.lanes_per_stream,
                                        monitor_.domain(d).device);
    const util::Cycles busy = cfg_.dispatch_cycles + exec.makespan;
    const util::Cycles completion = now_ + busy;
    metrics_.record_dispatch(live.size(), total_ops, exec.lanes_used, busy,
                             exec.energy_pj, exec.stats);
    metrics_.record_tenant_dispatch(pick.app, pick.weight, total_ops,
                                    pick.queued_for, pick.deficit_carried);
    if (degraded) metrics_.record_degraded(total_ops);
    // An exhausted retry ladder means the device could not produce a
    // verified result for some op: with the health layer on, the whole
    // batch relocates at completion instead of returning suspect values.
    const bool relocate = health_on() && exec.stats.escalations > 0;
    const double energy_per_op =
        total_ops == 0 ? 0.0
                       : exec.energy_pj / static_cast<double>(total_ops);
    for (std::size_t m = 0; m < live.size(); ++m) {
      PendingReq& p = at(live[m]);
      if (!relocate) p.resp.values = std::move(exec.values[m]);
      p.resp.dispatch = now_;
      p.resp.completion = completion;
      p.resp.batch_requests = static_cast<std::uint16_t>(live.size());
      // += so an escalated rerun's energy adds to the first pass.
      p.resp.energy_pj +=
          energy_per_op * static_cast<double>(p.req.operands.size());
    }
    InFlight f;
    f.completion = completion;
    f.members = std::move(live);
    f.app = std::move(pick.app);
    f.domain = d;
    f.relocate = relocate;
    f.detections = exec.stats.faults_detected;
    f.escalations = exec.stats.escalations;
    occupy(std::move(f), batch.key, total_ops);
  }

  /// Put `f` on its stream until f.completion: the step tenant batches
  /// and scrub passes share. Only a tenant batch's event carries a shape.
  void occupy(InFlight&& f, const BatchKey& key, std::size_t ops) {
    if (trace_ != nullptr) {
      trace::Event e = tev(trace::EventKind::kDispatch);
      e.app = f.app;
      e.domain = static_cast<std::int64_t>(f.domain);
      e.scrub = f.scrub;
      e.ops = ops;
      if (!f.scrub) {
        e.op = static_cast<std::uint8_t>(key.op);
        e.width = key.width;
        e.relax = key.relax_bits;
        e.policy = static_cast<std::uint8_t>(key.policy);
      }
      e.members = f.members;
      trace_->record(std::move(e));
    }
    monitor_.domain(f.domain).busy = true;
    sched_.stream_acquired(f.app);
    f.seq = next_dispatch_seq_++;
    inflight_.push_back(std::move(f));
  }

  /// Take in-flight entry i off its stream: the step completion and abort
  /// share. The stream frees, and so does a scrub pass's queued mark; an
  /// abort's event carries no reliability counters.
  InFlight release(std::size_t i, trace::EventKind kind) {
    InFlight f = std::move(inflight_[i]);
    inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
    health::Domain& dom = monitor_.domain(f.domain);
    dom.busy = false;
    if (f.scrub) dom.scrub_queued = false;
    sched_.stream_released(f.app);
    if (trace_ != nullptr) {
      trace::Event e = tev(kind);
      e.domain = static_cast<std::int64_t>(f.domain);
      e.app = f.app;
      e.scrub = f.scrub;
      if (kind == trace::EventKind::kComplete) {
        e.detections = f.detections;
        e.escalations = f.escalations;
      }
      e.members = f.members;
      trace_->record(std::move(e));
    }
    return f;
  }

  // -- Completion -----------------------------------------------------------

  void complete_due() {
    for (;;) {
      std::size_t best = inflight_.size();
      for (std::size_t i = 0; i < inflight_.size(); ++i) {
        if (inflight_[i].completion > now_) continue;
        if (best == inflight_.size() ||
            inflight_[i].completion < inflight_[best].completion ||
            (inflight_[i].completion == inflight_[best].completion &&
             inflight_[i].seq < inflight_[best].seq)) {
          best = i;
        }
      }
      if (best == inflight_.size()) return;
      InFlight done = release(best, trace::EventKind::kComplete);
      if (done.scrub) {
        // A dirty pass on a serving domain quarantines it on the spot.
        transition(
            done.domain,
            [&] { monitor_.on_scrub(done.domain, done.scrub_report); },
            &done.scrub_report);
        continue;
      }

      if (health_on()) {
        transition(done.domain, [&] {
          monitor_.on_dispatch(done.domain, done.detections,
                               done.escalations);
        });
      }
      if (done.relocate) {
        relocate_members(done.members);
        continue;
      }

      for (const std::uint64_t id : done.members) {
        PendingReq& p = at(id);
        if (p.finalized()) continue;  // Relocation budget ran out mid-abort.
        qos_golden_.clear();
        qos_test_.clear();
        for (std::size_t j = 0; j < p.req.operands.size(); ++j) {
          qos_golden_.push_back(golden_value(p.req.op, p.req.width,
                                             p.req.operands[j].first,
                                             p.req.operands[j].second));
          qos_test_.push_back(static_cast<double>(p.resp.values[j]));
        }
        const quality::QosEvaluation eval =
            quality::evaluate_qos(kServedQos, qos_golden_, qos_test_);
        p.resp.qos = ServedQos{eval.loss, eval.acceptable};
        if (!p.resp.qos.acceptable && p.resp.relax_bits > 0 &&
            cfg_.escalate_on_miss && !p.resp.escalated) {
          // QoS miss under approximation: pin the app to exact and rerun
          // this request exactly, charging the extra latency to it.
          p.resp.escalated = true;
          metrics_.record_escalation();
          table_.escalate(p.req.app);
          p.resp.relax_bits = 0;
          if (trace_ != nullptr) {
            trace::Event e = tev(trace::EventKind::kQosEscalate);
            e.req = static_cast<std::int64_t>(p.resp.id);
            e.app = p.req.app;
            e.relax = p.resp.relax_bits;
            e.ops = p.req.operands.size();
            trace_->record(std::move(e));
          }
          join_batcher(p);
          metrics_.record_queue_depth(queue_depth());
        } else {
          finalize(p, RequestStatus::kOk, p.resp.completion);
        }
      }
    }
  }

  const ServerConfig cfg_;
  QosTable table_;
  Metrics metrics_;
  DynamicBatcher batcher_;
  DrrScheduler sched_;
  /// One record per stream and the health timers (serve/health.hpp), in
  /// every mode.
  health::HealthMonitor monitor_;
  util::Cycles now_ = 0;
  /// Optional structured event sink; nullptr = tracing off (no events are
  /// constructed, so untraced runs are bit-identical to pre-trace builds).
  trace::EventLog* const trace_ = cfg_.trace;

  /// Every staged request, indexed by id.
  RequestTable reqs_;
  /// (arrival, id) min-heap: earliest arrival first, id tie-break.
  std::priority_queue<std::pair<util::Cycles, std::uint64_t>,
                      std::vector<std::pair<util::Cycles, std::uint64_t>>,
                      std::greater<>>
      arrivals_;
  std::vector<InFlight> inflight_;
  std::uint64_t next_dispatch_seq_ = 0;
  /// Completion-time QoS check buffers, reused across requests.
  std::vector<double> qos_golden_, qos_test_;
  /// Finalized requests whose operands release_finished() has not freed.
  std::vector<std::uint64_t> finished_;
};

Server::Server(ServerConfig config, QosTable table)
    : impl_(std::make_unique<Impl>(validated(std::move(config)),
                                   std::move(table))) {}

Server::~Server() = default;

std::vector<Response> Server::run_trace(std::vector<Request> trace) {
  const std::uint64_t first = impl_->next_id();
  for (Request& r : trace) impl_->stage(std::move(r));
  trace = std::vector<Request>();  // Each request now lives in the engine.
  step_until(std::numeric_limits<util::Cycles>::max());
  impl_->release_finished();
  std::vector<Response> responses;
  responses.reserve(impl_->next_id() - first);
  for (std::uint64_t id = first; id < impl_->next_id(); ++id)
    responses.push_back(std::move(impl_->at(id).resp));
  return responses;
}

std::uint64_t Server::stage_request(Request request) {
  return impl_->stage(std::move(request));
}

std::optional<util::Cycles> Server::next_event_at() const {
  return impl_->next_event_time();
}

bool Server::step_until(util::Cycles limit) {
  bool any = false;
  for (;;) {
    const std::optional<util::Cycles> at = impl_->next_event_time();
    if (!at || *at > limit) break;
    impl_->step();
    any = true;
  }
  return any;
}

util::Cycles Server::virtual_now() const { return impl_->now(); }

const Response& Server::response(std::uint64_t id) const {
  if (id >= impl_->next_id())
    throw std::out_of_range("Server::response: no request has this id");
  return impl_->at(id).resp;
}

void Server::release_finished() { impl_->release_finished(); }

std::size_t Server::serving_domain_count() const {
  return impl_->serving_count();
}

MetricsSnapshot Server::snapshot() const { return impl_->snapshot(); }

const QosTable& Server::qos_table() const noexcept { return impl_->table(); }

}  // namespace apim::serve
