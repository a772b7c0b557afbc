// Opt-in structured event stream for the serving and cluster engines.
//
// When a `trace::EventLog` is attached to a `ServerConfig` / `ClusterConfig`,
// the engines emit one `Event` per observable scheduling decision — admission,
// batch seal, DRR credit grant/spend/refund, dispatch, completion, QoS
// escalation, health transitions, scrub, relocation, inter-chip forward /
// response legs and migration start/commit — each stamped with virtual time,
// tenant, fault domain and chip. The log is the input to the runtime trace
// verifier (`analysis::check_serving_trace`, `tools/apim_trace_lint`), which
// replays it against the engines' formal invariants.
//
// Tracing is strictly observational: with `trace == nullptr` (the default)
// no event is constructed and every run is bit-identical to an untraced one.
// The log is not synchronized; attach it only to the deterministic
// virtual-time entry points (`run_trace`, the stepping API), where all
// emissions happen on one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace apim::serve::trace {

/// One event kind per observable engine decision. Serialized names are the
/// kebab-case rule-catalog spellings (`to_string`).
enum class EventKind : std::uint8_t {
  // Server scope (chip >= 0 in a cluster, -1 standalone).
  kAdmit,         ///< Request admitted into the batcher (post-capacity check).
  kBatchSeal,     ///< A same-shape batch closed and entered the scheduler.
  kDispatch,      ///< Batch (or scrub) issued to a stream / fault domain.
  kComplete,      ///< Batch left its stream; domain freed.
  kAbort,         ///< In-flight batch killed by a domain quarantine.
  kServe,         ///< Terminal: request finalized kOk.
  kReject,        ///< Terminal: request finalized kRejected.
  kExpire,        ///< Terminal: request finalized kExpired.
  kInvalid,       ///< Terminal: request finalized kInvalid.
  kCreditGrant,   ///< DRR rotation credited a tenant its quantum x weight.
  kCreditSpend,   ///< DRR pick debited a batch's ops from the tenant deficit.
  kCreditRefund,  ///< Expired-at-dispatch ops returned to the tenant deficit.
  kQosEscalate,   ///< QoS miss re-queued the request at relax 0.
  kRelocate,      ///< Request re-queued off a quarantined / suspect domain.
  kHealth,        ///< Fault-domain FSM transition (healthy/suspect/quarantined).
  kScrub,         ///< March-test scrub pass finished (online or offline).
  // Cluster scope (chip == -1).
  kClusterAdmit,      ///< Request routed to its shard's chip.
  kForward,           ///< Cross-chip request leg charged to the interconnect.
  kResponseLeg,       ///< Cross-chip response leg (stamped at edge completion).
  kMigrationStart,    ///< Rebalancer began moving a shard (shard locked).
  kMigrationCommit,   ///< Shard move landed; placement updated.
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;
/// Inverse of to_string; returns false on an unknown name.
[[nodiscard]] bool kind_from_string(const std::string& name, EventKind* out);

/// One trace record. The struct is deliberately wide and flat: every kind
/// fills only its relevant fields and leaves the rest at their defaults,
/// and serialization emits non-default fields only.
struct Event {
  EventKind kind = EventKind::kAdmit;
  util::Cycles at = 0;     ///< Virtual timestamp (engine clock).
  std::int32_t chip = -1;  ///< Emitting chip; -1 = cluster scope/standalone.
  std::int64_t req = -1;   ///< Chip-local request id (cluster: trace index).
  std::string app;         ///< Tenant ("__scrub" for scrub batches).
  std::int64_t domain = -1;  ///< Stream / fault domain.
  // Request / batch shape (admit, seal, dispatch).
  std::uint8_t op = 0;      ///< serve::OpKind.
  unsigned width = 0;
  unsigned relax = 0;
  std::uint8_t policy = 0;  ///< reliability::ReliabilityPolicy.
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> members;  ///< Request ids in the batch.
  // DRR credit ledger (grant / spend / refund).
  std::uint64_t amount = 0;
  std::uint64_t deficit_after = 0;
  bool idle_reset = false;  ///< Spend emptied the queue: deficit forfeited.
  // Admission bound (admit).
  std::uint64_t queue_depth = 0;  ///< Depth including this request.
  std::uint64_t capacity = 0;     ///< Effective bound; 0 = unbounded.
  // Health FSM (health / scrub / dispatch bookkeeping).
  std::uint8_t state_from = 0;  ///< serve::health::DomainState.
  std::uint8_t state_to = 0;
  bool dead = false;     ///< Domain hard-killed (no repair possible).
  bool clean = false;    ///< Scrub found zero stuck cells.
  bool offline = false;  ///< Scrub ran as an offline repair re-test.
  std::uint64_t stuck = 0;
  std::uint64_t repaired = 0;
  std::uint64_t detections = 0;
  std::uint64_t escalations = 0;
  bool scrub = false;  ///< Batch is the background scrub tenant's.
  // Interconnect legs and shard moves (cluster scope).
  std::int64_t from = -1;  ///< Source chip.
  std::int64_t to = -1;    ///< Destination chip.
  std::uint64_t hops = 0;
  std::uint64_t bits = 0;
  util::Cycles cycles = 0;  ///< Charged route latency.
  double energy_pj = 0.0;   ///< Charged route energy.
  std::int64_t shard = -1;
};

/// Engine configuration echoed into the log header so the verifier can
/// recompute invariant bounds (stream caps, interconnect charges) without
/// access to the live config objects. Serve fields are filled by the first
/// server that sees the log (all chips of a cluster share one config);
/// cluster fields by the cluster itself.
struct Meta {
  // serve::Server (streams == 0 means "not yet filled").
  std::size_t streams = 0;
  std::size_t lanes = 0;
  std::size_t queue_capacity = 0;
  bool fair_share = false;
  std::uint64_t quantum_ops = 0;
  std::uint64_t default_weight = 1;
  std::map<std::string, std::uint64_t> weights;
  bool health = false;
  // cluster::Cluster (chips == 0 means "single server").
  std::size_t chips = 0;
  std::size_t shards = 0;
  util::Cycles hop_latency_cycles = 0;
  std::size_t link_bits = 0;
  double pj_per_bit_hop = 0.0;
  std::uint64_t shard_bits = 0;
};

/// Append-only event buffer with a hard capacity: once full, further events
/// are dropped and `overflowed()` latches, which the verifier reports as
/// unsound (`trace-overflow`) rather than silently passing a partial log.
class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  EventLog() = default;
  explicit EventLog(std::size_t capacity) : capacity_(capacity) {}

  void record(Event event) {
    if (events_.size() >= capacity_) {
      overflowed_ = true;
      return;
    }
    events_.push_back(std::move(event));
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  /// Mutable access for the seeded-mutation test suites.
  [[nodiscard]] std::vector<Event>& events() { return events_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  void set_overflowed(bool value) { overflowed_ = value; }
  void clear() {
    events_.clear();
    overflowed_ = false;
    meta = Meta{};
  }

  /// Line-oriented text form (`apim-trace v1`): one `meta` / `weight` /
  /// `event` record per line, `key=value` tokens, non-default fields only.
  /// Doubles print with enough digits to round-trip bit-exactly.
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(). Returns false and sets `*error` on a malformed
  /// document; `*out` is cleared first. Numbers go through the strict
  /// reader of util/scan.hpp: the whole token, no sign on an unsigned
  /// field, a value that fits its field, and no empty `members` item. A bad
  /// value reports "line N: bad value 'V' for key 'K'".
  static bool parse(const std::string& text, EventLog* out,
                    std::string* error);

  Meta meta;

 private:
  std::vector<Event> events_;
  std::size_t capacity_ = kDefaultCapacity;
  bool overflowed_ = false;
};

}  // namespace apim::serve::trace
