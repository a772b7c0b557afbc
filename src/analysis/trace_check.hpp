// Runtime trace verifier: replays a serve/cluster event log against the
// engines' formal invariants.
//
// The serving engine (serve/server.hpp) and the cluster router
// (cluster/cluster.hpp) optionally emit a structured event stream
// (serve/trace.hpp). `check_serving_trace` replays that stream through
// independent re-implementations of the engine contracts and reports every
// violation as an analysis::Diagnostic (pc = event index in the log):
//
//   trace-overflow       The log dropped events (capacity hit): the replay
//                        is unsound, reported as an error up front. End-of-
//                        log conservation checks are skipped on a truncated
//                        prefix.
//   clock-regression     Virtual timestamps must be non-decreasing per
//                        emitter (each chip's engine clock, and the cluster
//                        loop clock for chip = -1 events). Response legs
//                        are assembled after the cluster loop and are the
//                        documented exemption.
//   request-causality    Per-request lifecycle FSM: admit -> seal ->
//                        dispatch -> terminal, with escalation/relocation
//                        arcs back to the queue. Any event on a finalized
//                        request, or a phase skip (dispatch without seal,
//                        serve without dispatch), is an error.
//   request-conservation Every admitted request reaches exactly one
//                        terminal event (serve/reject/expire/invalid);
//                        terminals without admission are only legal for
//                        rejections and invalid requests (turned away at
//                        the door).
//   batch-homogeneity    Sealed and dispatched batches are same-shape: the
//                        batch's (op, width, relax, policy) must match
//                        every member's admitted shape (escalation resets
//                        a member's relax; the verifier tracks it).
//   admission-bound      An admit event must respect the effective queue
//                        capacity it reports (depth <= capacity).
//   drr-credit           The deficit round-robin credit ledger balances:
//                        grants credit quantum x weight, spends never
//                        exceed the balance, refunds restore it, and each
//                        event's declared deficit matches the replay.
//   drr-share-bound      Weighted stream share: a dispatch that puts a
//                        tenant at/over its cap (max(1, floor(streams *
//                        w / total_active_w))) is only legal when no other
//                        tenant could use the stream (spill-over) or the
//                        tenant holds all queued work.
//   stream-overlap       A stream/fault domain holds one dispatch at a
//                        time: dispatch on a busy domain, or completion on
//                        an idle one, is an error.
//   health-fsm           Fault-domain state machine legality: transitions
//                        limited to healthy->suspect->quarantined and the
//                        repair arcs back; no dispatch or online scrub on
//                        a quarantined domain; offline repairs only there.
//   interconnect-charge  Every forward/response/migration leg's hops,
//                        cycles and energy are recomputed for the star
//                        interconnect via the cost law
//                        hops * (hop_latency + ceil(bits / link_bits)) and
//                        hops * bits * pj_per_bit_hop; any mismatch
//                        (under- or over-charge) is an error.
//   commit-order         Migration lifecycle: starts lock a shard, exactly
//                        one commit (same route) unlocks it, and commits
//                        at one instant are processed shard-ascending.
//
// The replay needs no access to the live engine objects: the log header
// (trace::Meta) carries the configuration the bounds derive from. Checks
// whose parameters are missing from the header (e.g. interconnect charges
// without cluster meta) are skipped rather than guessed.
#pragma once

#include <string>

#include "analysis/diagnostics.hpp"
#include "serve/trace.hpp"

namespace apim::analysis {

/// Replay `log` against every invariant above. Diagnostics carry the
/// stable rule ids listed in the header comment; pc is the 0-based event
/// index (-1 for whole-log findings).
[[nodiscard]] Report check_serving_trace(const serve::trace::EventLog& log);

/// In-process hook for tests and benches: empty string when the log is
/// clean, otherwise the formatted report (one finding per line).
[[nodiscard]] std::string verify_trace(const serve::trace::EventLog& log);

}  // namespace apim::analysis
