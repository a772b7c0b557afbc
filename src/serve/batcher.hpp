// Dynamic batcher: coalesce same-shaped requests into one dispatch.
//
// A bank controller broadcasts ONE schedule to its active tiles
// (core/chip.hpp::command_streams), so requests can share a dispatch only
// when they run the SAME schedule: same op kind, same word width, same
// relax level, same reliability policy. Together with the tenant app —
// batches stay single-tenant so the fair-share scheduler
// (serve/scheduler.hpp) can attribute and rate every dispatch — that is
// the batch shape. An open batch closes — becomes dispatchable — when its
// batching window (simulated cycles since it opened) elapses or its op
// count reaches the per-dispatch lane budget. Everything here is
// deterministic: batches are keyed and iterated in a total order, never
// by pointer or hash order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "serve/request.hpp"

namespace apim::serve {

/// The shape tuple; requests coalesce iff their keys compare equal.
struct BatchKey {
  OpKind op = OpKind::kMultiply;
  unsigned width = 32;
  unsigned relax_bits = 0;
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
  /// Owning tenant: batches are single-tenant so dispatch scheduling can
  /// charge each one to exactly one app's deficit account.
  std::string app;

  [[nodiscard]] friend bool operator==(const BatchKey&,
                                       const BatchKey&) = default;
  [[nodiscard]] friend bool operator<(const BatchKey& a, const BatchKey& b) {
    return std::tie(a.op, a.width, a.relax_bits, a.policy, a.app) <
           std::tie(b.op, b.width, b.relax_bits, b.policy, b.app);
  }
};

/// Key for a request once its relax level has been chosen.
[[nodiscard]] inline BatchKey key_for(const Request& r,
                                      unsigned relax_bits) {
  return BatchKey{r.op, r.width, relax_bits, r.policy, r.app};
}

/// Sentinel for ClosedBatch::scrub_domain: not a scrub batch.
inline constexpr std::size_t kNotScrub = static_cast<std::size_t>(-1);

/// A closed batch, ready for dispatch: member request ids in admission
/// order plus bookkeeping for FIFO dispatch.
struct ClosedBatch {
  BatchKey key{};
  std::vector<std::uint64_t> members;  ///< Request ids, admission order.
  std::size_t ops = 0;
  util::Cycles closed_at = 0;
  std::uint64_t seq = 0;  ///< Close order tie-break (deterministic FIFO).
  /// When != kNotScrub this is a background march-test scrub batch
  /// targeting that fault domain (serve/health.hpp): no members, rides
  /// the DRR scheduler under the `kScrubTenant` system tenant, and must
  /// dispatch on its target stream.
  std::size_t scrub_domain = kNotScrub;
};

class DynamicBatcher {
 public:
  /// `window`: cycles an open batch waits for company before closing.
  /// `max_ops`: op budget per dispatch (the stream's lane count is the
  /// natural choice); a batch reaching it closes immediately. When
  /// `window` is 0 every request closes as a singleton — the unbatched
  /// baseline the serving bench compares against.
  DynamicBatcher(util::Cycles window, std::size_t max_ops);

  /// Add an admitted request (its relax level already chosen). Returns a
  /// closed batch when this addition filled one, otherwise nullopt.
  std::optional<ClosedBatch> add(std::uint64_t request_id, const BatchKey& key,
                                 std::size_t ops, util::Cycles now);

  /// Close every open batch whose window has elapsed by `now`, in
  /// deterministic (close time, key) order.
  [[nodiscard]] std::vector<ClosedBatch> close_due(util::Cycles now);

  /// Earliest pending window expiry, or nullopt when no batch is open.
  [[nodiscard]] std::optional<util::Cycles> next_close() const;

  /// Requests currently held in open batches.
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return pending_requests_;
  }

 private:
  struct OpenBatch {
    std::vector<std::uint64_t> members;
    std::size_t ops = 0;
    util::Cycles close_at = 0;
  };

  ClosedBatch seal(const BatchKey& key, OpenBatch&& open, util::Cycles now);

  util::Cycles window_;
  std::size_t max_ops_;
  std::map<BatchKey, OpenBatch> open_;
  std::size_t pending_requests_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace apim::serve
