// DB-style analytics operators on APIM.
//
// Every operator decomposes into waves of in-memory micro-ops issued
// through a Runner (and therefore through serve::Server):
//
//   operator        in-memory micro-kernel                  periphery work
//   --------------  --------------------------------------  -----------------
//   select          kCompare (complement-add three-way       predicate decode
//                   compare vs the literal)                  of the 3-way code
//   select.count /  kPopcount over packed mask words,        bit packing
//   COUNT           kVectorAdd tree reduction of the
//                   per-word counts
//   SUM             kVectorAdd pairwise reduction rounds     pairing order
//   MIN / MAX       kCompare tournament rounds               winner pick
//   AVG             SUM + COUNT in memory                    final division
//   hash join       kCompare key-equality verification       FNV-1a bucketing
//                   of every bucket candidate                (controller hash)
//   sort            kCompare per bitonic stage               exchange moves
//
// Exactness contract: every operator above is EXACT bit-for-bit — compares
// always run exact regardless of the tenant's QoS relax (predicates and
// join keys are the exactness domain), and the SUM/COUNT reductions issue
// at widths that keep every partial in range, so no clamping or relaxation
// can perturb them under the default exact QoS. The differential oracle
// (tests/analytics_harness.hpp) enforces this against a pure host scalar
// reference across backends and thread counts. Approximation enters only
// when a caller deliberately serves aggregates under a relaxed QoS table
// entry (the bench's relaxed-aggregate variant).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analytics/runner.hpp"

namespace apim::analytics {

enum class CmpOp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

struct Predicate {
  CmpOp op = CmpOp::kLt;
  std::uint64_t literal = 0;
};

/// Decode a predicate from a three-way compare code (arith::kCmp*).
[[nodiscard]] bool predicate_holds(CmpOp op, std::uint64_t code);

struct SelectResult {
  std::vector<bool> mask;   ///< Per-row predicate outcome.
  std::uint64_t count = 0;  ///< Mask cardinality, counted in memory.
};

/// Selection: three-way compare of every row against the literal, decoded
/// at the periphery; the mask cardinality is popcounted in memory over
/// packed 32-bit mask words.
[[nodiscard]] SelectResult select(Runner& runner,
                                  std::span<const std::uint64_t> column,
                                  unsigned width, Predicate pred);

/// Mask cardinality counted in memory: the mask is packed into 32-bit
/// words, each word popcounted, and the per-word counts tree-reduced.
[[nodiscard]] std::uint64_t mask_count(Runner& runner,
                                       const std::vector<bool>& mask);

/// One output row of a grouped aggregation, keyed ascending.
struct AggRow {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t avg_q = 0;  ///< sum / count (host division, exact pair).
  std::uint64_t avg_r = 0;  ///< sum % count.
};

/// Hash-grouped aggregation of `values` by `keys` (optionally masked).
/// Grouping is controller-side hashing; per-group SUM/COUNT/MIN/MAX run in
/// memory as reduction waves batched ACROSS groups (every round issues one
/// same-shape wave covering all groups). Output rows sorted by key.
/// Requires val_width + ceil(log2(max group size)) <= 32 so the running
/// sums stay in request range. Throws std::invalid_argument, in every
/// build type, when a running sum exceeds 32 bits or when `values` or
/// `mask` differs in size from `keys`.
[[nodiscard]] std::vector<AggRow> group_aggregate(
    Runner& runner, std::span<const std::uint64_t> keys,
    std::span<const std::uint64_t> values, unsigned val_width,
    const std::vector<bool>* mask = nullptr);

struct JoinPair {
  std::uint32_t left = 0;   ///< Row index in the left (probe) table.
  std::uint32_t right = 0;  ///< Row index in the right (build) table.
};

/// Hash join on equal keys: FNV-1a bucketing of the right side at the
/// controller, then one in-memory kCompare wave verifying every bucket
/// candidate — every emitted pair was proven equal in memory, never by the
/// host hash. Output ordered by (left, right) ascending.
[[nodiscard]] std::vector<JoinPair> hash_join(
    Runner& runner, std::span<const std::uint64_t> left_keys,
    std::span<const std::uint64_t> right_keys, unsigned key_width);

struct SortResult {
  std::vector<std::uint64_t> keys;  ///< Input keys in nondecreasing order.
  std::vector<std::uint32_t> perm;  ///< perm[i] = original row of output i.
};

/// Bitonic sort over in-memory compares: the network is padded to the next
/// power of two with max-value sentinels, each stage issues one kCompare
/// wave (P/2 compares), and the periphery applies the exchanges. Equal
/// keys never exchange, so the permutation is deterministic (but the
/// network is not stable; equal-key payload order is network order).
[[nodiscard]] SortResult sort_by_key(Runner& runner,
                                     std::span<const std::uint64_t> keys,
                                     unsigned width);

/// Exact pairwise-reduction SUM of `values` through kVectorAdd waves; each
/// round re-derives the width from the surviving operands' magnitudes.
/// Exposed for operators composed outside group_aggregate (e.g. Q6's
/// revenue over per-row products). Throws std::invalid_argument, in every
/// build type, when a running sum exceeds 32 bits.
[[nodiscard]] std::uint64_t tree_sum(Runner& runner,
                                     std::vector<std::uint64_t> values);

}  // namespace apim::analytics
