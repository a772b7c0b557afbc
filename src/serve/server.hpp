// Serving runtime: a multi-tenant request scheduler over the APIM chip
// model.
//
// The Server owns a bounded admission queue, a dynamic batcher
// (serve/batcher.hpp) and a pool of execution resources derived from the
// chip: `streams` controller command streams (one broadcast schedule at a
// time each, core/chip.hpp) with `lanes_per_stream` lanes behind each.
// Scheduling runs in VIRTUAL time (simulated MAGIC cycles) as a
// discrete-event model on the caller's thread, and each dispatch executes
// serially (serve/executor.hpp), so served values, timestamps and metrics
// are bit-identical for every host worker count.
//
// Request lifecycle:
//   arrival -> admission (reject or block at capacity)
//     -> relax level from the QoS table (exact fallback)
//     -> dynamic batcher (same-shape, single-tenant coalescing)
//     -> fair-share scheduler (per-tenant deficit round-robin with
//        weighted stream allocation, serve/scheduler.hpp)
//     -> dispatch on a free stream (deadline-expired members dropped)
//     -> completion; QoS check vs host-exact golden
//     -> on miss: escalate app to exact, re-execute once
//
// Two driving modes share the engine, both in virtual time:
//  * run_trace        — deterministic open-loop replay of a seeded trace;
//  * stage_request/step_until — event-by-event stepping for coordinators
//    (the cluster, analytics waves).
// The engine holds one record per staged request, its Request and its
// Response and nothing else (80 + 88 = 168 bytes): the Response also
// carries the request's relax level, escalation and whether it has
// finalized (serve/request.hpp). Records live in fixed chunks of 512,
// each built in place when staged; none moves, and all are freed with
// the Server. A finalized request's operands are freed in bulk by
// release_finished(), and its Response is kept until the driver collects
// it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/chip.hpp"
#include "core/config.hpp"
#include "serve/health.hpp"
#include "serve/metrics.hpp"
#include "serve/qos_table.hpp"
#include "serve/request.hpp"

namespace apim::serve {

namespace trace {
class EventLog;
}  // namespace trace

enum class AdmissionPolicy : std::uint8_t {
  kReject,  ///< Queue at capacity: fail fast with kRejected.
  kBlock,   ///< Queue at capacity: delay admission until space frees.
};

struct ServerConfig {
  /// Controller command streams (concurrent dispatches) and lanes each
  /// stream broadcasts to. Defaults are a small slice of a chip, sized so
  /// tests and benches run in milliseconds; from_chip() scales them up.
  /// Both must be >= 1 (Server throws std::invalid_argument otherwise).
  std::size_t streams = 4;
  std::size_t lanes_per_stream = 64;

  /// Admission control: requests waiting (batching or awaiting a stream).
  /// Must be >= 1.
  std::size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// Batching window in simulated cycles: how long an open batch waits to
  /// coalesce same-shaped company. 0 disables coalescing entirely (every
  /// request dispatches alone — the comparison baseline).
  util::Cycles batch_window = 2000;
  /// Op budget per dispatch; 0 means lanes_per_stream.
  std::size_t max_batch_ops = 0;

  /// Controller setup charged per dispatch (broadcast configuration,
  /// operand staging). This is what batching amortizes.
  util::Cycles dispatch_cycles = 64;

  /// Fair-share dispatch (serve/scheduler.hpp): drain closed batches with
  /// a per-tenant deficit round-robin and weighted stream allocation
  /// instead of the legacy global FIFO in batch-close order. With one
  /// tenant (or equal weights and no contention) the schedules coincide;
  /// under contention DRR serves tenants' ops in weight proportion.
  bool fair_share = true;
  /// Scheduling weight per app; unlisted apps weigh 1 (zero clamps to
  /// one). Weights set both the DRR quantum scale — batch_op_budget() ops
  /// per weight unit per ring visit — and the concurrent-stream share.
  std::map<std::string, std::uint32_t> tenant_weights;

  /// Re-execute a request exactly (and pin its app to exact) when its
  /// completed result misses the served QoS criterion (request.hpp).
  bool escalate_on_miss = true;

  /// Base device configuration: energy model, backend, fault state and
  /// retry budget. Width/relax/policy are overridden per batch shape.
  core::ApimConfig device{};

  /// Online fault-domain health layer (serve/health.hpp): per-stream
  /// state machine, background march-test scrub through the DRR
  /// scheduler, quarantine with relocation, and graceful degradation.
  /// Disabled by default; `health.fault_schedule` fires even when the
  /// layer is disabled so the chaos bench can A/B identical injections.
  health::HealthConfig health{};

  /// Optional structured event stream (serve/trace.hpp) consumed by the
  /// runtime trace verifier (analysis::check_serving_trace). nullptr (the
  /// default) emits nothing and leaves every run bit-identical to an
  /// untraced one. The log is not synchronized: one engine thread at a
  /// time may write to it.
  trace::EventLog* trace = nullptr;
  /// Chip id stamped on emitted events (set by cluster::Cluster; -1 for a
  /// standalone server).
  std::int32_t trace_chip = -1;

  [[nodiscard]] std::size_t total_lanes() const noexcept {
    return streams * lanes_per_stream;
  }
  [[nodiscard]] std::size_t batch_op_budget() const noexcept {
    return max_batch_ops == 0 ? lanes_per_stream : max_batch_ops;
  }

  /// Serving resources of a full chip: one stream per bank, the bank's
  /// active tiles as its lanes.
  [[nodiscard]] static ServerConfig from_chip(const core::ApimChip& chip);
};

class Server {
 public:
  /// Throws std::invalid_argument, in every build type, when streams,
  /// lanes_per_stream or queue_capacity is zero, when batch_op_budget()
  /// or `health.max_relocations` is above 65 535 (a Response records
  /// each in 16 bits), or when a `health.fault_schedule` event names a
  /// domain >= streams.
  explicit Server(ServerConfig config, QosTable table = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- Deterministic replay ------------------------------------------------

  /// Execute an open-loop trace (requests with arrival cycles set) to
  /// completion. Returns one response per request, in trace order.
  /// Bit-identical for every host thread count. The trace's storage is
  /// freed once every request is staged, and the responses are moved out
  /// of the engine.
  std::vector<Response> run_trace(std::vector<Request> trace);

  // -- Incremental stepping (cluster coordination) -------------------------
  //
  // A coordinator that drives several virtual-time servers (one per chip,
  // src/cluster/) stages arrivals as they become known and steps each
  // engine only as far as it needs to read it, instead of calling
  // run_trace. Staging reads no engine state and a staged request waits
  // for its arrival cycle, so an engine may lag the coordinator's clock.
  // run_trace itself stages its trace and drains through step_until, so
  // driving a single server this way reproduces it bit-exactly.

  /// Stage one open-loop request (arrival cycle set by the caller) without
  /// running the engine. Returns the request's dense id for response().
  std::uint64_t stage_request(Request request);

  /// Earliest virtual time at which the engine has work (an arrival,
  /// batch close, completion, fault event, repair or scrub — or queued
  /// work that is dispatchable/sheddable right now). nullopt when fully
  /// drained.
  [[nodiscard]] std::optional<util::Cycles> next_event_at() const;

  /// Process every event due at or before `limit`. Returns true when at
  /// least one event was processed.
  bool step_until(util::Cycles limit);

  /// Current virtual time of the engine clock.
  [[nodiscard]] util::Cycles virtual_now() const;

  /// Response of a request staged with stage_request; meaningful once it
  /// finalized (status != kPending). run_trace moves its responses out,
  /// so this does not cover its requests. Throws std::out_of_range, in
  /// every build type, for an id no request was staged under.
  [[nodiscard]] const Response& response(std::uint64_t id) const;

  /// Free the operands of every request finalized so far; their responses
  /// stay readable. run_trace does this before it returns. The analytics
  /// runner calls it between waves; the cluster does not, because freeing
  /// its chips' operands mid-run interleaves the freed holes with the
  /// responses it copies out at the end, and its chips are destroyed with
  /// it.
  void release_finished();

  /// Streams currently in service: with the health layer on, the count of
  /// non-quarantined domains; with it off, all streams. Cheap (no
  /// snapshot allocation) — placement/rebalancing polls this per tick.
  [[nodiscard]] std::size_t serving_domain_count() const;

  // -- Introspection -------------------------------------------------------

  /// Metrics snapshot, taken between driver calls or steps.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The QoS table, including runtime escalations.
  [[nodiscard]] const QosTable& qos_table() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace apim::serve
