// Request/response types of the serving runtime (src/serve/server.hpp).
//
// A request is one tenant's unit of work: a small vector of same-width
// arithmetic ops tagged with the application it belongs to (the paper's
// runtime detects the application and applies its tuned relax level,
// Section 4.3) and an optional latency deadline; the server scores every
// completion against one QoS constant (kServedQos, serve/server.cpp).
// All times are SIMULATED MAGIC cycles — the runtime is a discrete-event
// model of the served chip, so latencies and deadlines live on the
// device's clock, not the host's.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "reliability/policy.hpp"
#include "util/inline_vec.hpp"
#include "util/units.hpp"

namespace apim::serve {

/// Which in-memory schedule a request needs. Multiplies round-robin over
/// the stream's lanes; vector adds — and the other adder-pass shapes,
/// compares (complement-add, arith/compare_units.hpp) and popcounts
/// (degenerate tree-add) — are row-parallel inside a tile (one lane,
/// shared serial pass — arith/vector_unit.hpp).
enum class OpKind : std::uint8_t {
  kMultiply,
  kVectorAdd,
  kCompare,   ///< Three-way compare; values are arith::kCmpLt/kCmpEq/kCmpGt.
  kPopcount,  ///< Set-bit count of operand.first (operand.second ignored).
};

enum class RequestStatus : std::uint8_t {
  kPending,   ///< Not yet finalized (internal state).
  kOk,        ///< Executed; values valid.
  kRejected,  ///< Admission control refused it (queue at capacity).
  kExpired,   ///< Deadline passed before dispatch; never executed.
  kInvalid,   ///< Malformed (width out of range, no operands).
};

[[nodiscard]] constexpr const char* to_string(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::kPending: return "pending";
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kExpired: return "expired";
    case RequestStatus::kInvalid: return "invalid";
  }
  return "?";
}

/// The engine holds one Request and one Response per staged request and
/// nothing else per request (serve/server.cpp), so each packs its narrow
/// fields into its last word: 80 and 88 bytes. Each keeps a small payload
/// inline (util::InlineVec, whose inline capacity follows from sizeof(T)):
/// a Request one operand pair, a Response two values. So a one-op request
/// owns no heap block from generation to destruction. A request of 2 or
/// more ops still owns one block for its operands, which
/// Server::release_finished() frees in bulk, and past two ops its
/// response owns one for its values.
struct Request {
  /// Tenant application name; keys the QoS table lookup that picks the
  /// relax level ("" or an unknown name falls back to exact).
  std::string app;
  /// Magnitude operand pairs; values above `width` bits are clamped by the
  /// device exactly as in direct ApimDevice use. One pair is held inline.
  util::InlineVec<std::pair<std::uint64_t, std::uint64_t>> operands;
  /// Simulated arrival time, set by whoever builds the request (a trace
  /// generator or a stepping loop).
  util::Cycles arrival = 0;
  /// Relative deadline in cycles from arrival; 0 = none. A request not
  /// DISPATCHED by arrival + deadline expires without executing.
  util::Cycles deadline = 0;
  OpKind op = OpKind::kMultiply;
  /// Fault-tolerance level this tenant pays for (reliability/policy.hpp);
  /// part of the batch shape — requests only coalesce with like policies.
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
  /// Word width of every operand pair, 4..32 (ApimDevice's range).
  unsigned width = 32;
};

/// The completion-time QoS check of a response's values against the
/// host-exact golden ones. The criterion is relative error, whose metric
/// is its loss, so the loss is all a response keeps.
struct ServedQos {
  double loss = 0.0;  ///< Mean relative error.
  bool acceptable = false;
};

/// While the request is in the engine, its Response is also its scheduler
/// state: `relax_bits` is the level its next batch runs at, `escalated`
/// marks the exact rerun a QoS miss forced, and `status` stays kPending
/// until it finalizes.
struct Response {
  std::uint64_t id = 0;  ///< Server-assigned, dense in admission order.
  /// One per operand pair; empty for every status but kOk. Two values
  /// are held inline.
  util::InlineVec<std::uint64_t> values;
  /// Of the served values; the default for every status but kOk.
  ServedQos qos{};
  util::Cycles arrival = 0;
  util::Cycles dispatch = 0;    ///< When the batch started executing.
  util::Cycles completion = 0;  ///< When results were available.
  /// This request's share of the batch energy (proportional to op count).
  double energy_pj = 0.0;
  /// Requests coalesced into the dispatching batch (1 = unbatched). The
  /// Server caps batch_op_budget(), and so a batch's requests, at 65 535.
  std::uint16_t batch_requests = 0;
  /// Times the health layer re-queued this request off a failing fault
  /// domain (whole-domain failure mid-flight, or a batch whose results
  /// could not be verified); 0 without the health layer. The energy and
  /// latency above cover every attempt. At most health.max_relocations,
  /// which the Server caps at 65 535.
  std::uint16_t relocations = 0;
  /// Relax level the ops actually ran at (0 after an escalation, and for
  /// every status but kOk); QosTable::set caps it at 64.
  std::uint8_t relax_bits = 0;
  RequestStatus status = RequestStatus::kPending;
  /// True when a QoS miss forced an exact re-execution; the latency above
  /// then covers both passes. False for every status but kOk.
  bool escalated = false;

  /// Simulated queue-to-completion latency in cycles.
  [[nodiscard]] util::Cycles latency_cycles() const noexcept {
    return completion >= arrival ? completion - arrival : 0;
  }
};

static_assert(sizeof(Request) == 80 && sizeof(Response) == 88,
              "one Request and one Response per staged request: keep them "
              "packed");

}  // namespace apim::serve
