// Differential-testing oracle for the analytics operators
// (src/analytics/operators.hpp): a seeded columnar table generator plus a
// pure host-side scalar reference of every operator, with checks that
// compare the in-memory results bit for bit. Layered on the shared
// workload helpers (tests/workload_harness.hpp) for seed derivation and
// Zipf key skew. gtest-free: checks return "" on success or a
// human-readable violation string, so benches can reuse them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/operators.hpp"
#include "analytics/runner.hpp"
#include "core/config.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "workload_harness.hpp"

namespace apim::analytics_harness {

// -- Seeded table generation -------------------------------------------------

enum class KeyDist : std::uint8_t {
  kUniform,         ///< Uniform over a small key pool (duplicates likely).
  kZipf,            ///< Heavy-tailed pool ranks (hot keys dominate).
  kAllEqual,        ///< Every key identical (one giant group).
  kUniqueShuffled,  ///< 0..rows-1 shuffled (no duplicates at all).
};

struct TableSpec {
  std::size_t rows = 64;
  unsigned key_width = 8;
  unsigned val_width = 9;
  KeyDist dist = KeyDist::kUniform;
  double zipf_s = 1.1;        ///< Skew exponent for kZipf.
  std::size_t key_pool = 16;  ///< Distinct key candidates (pool dists).
  std::uint64_t seed = 1;
  std::string name = "t";  ///< Stream name (seeded_stream identity).
};

struct TestTable {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> values;
  unsigned key_width = 8;
  unsigned val_width = 9;
};

[[nodiscard]] inline TestTable make_test_table(const TableSpec& spec) {
  util::Xoshiro256 rng(workload_harness::seeded_stream(spec.seed, spec.name));
  TestTable t;
  t.key_width = spec.key_width;
  t.val_width = spec.val_width;
  const std::uint64_t key_cap = util::low_mask(spec.key_width) + 1;
  const std::uint64_t pool =
      std::min<std::uint64_t>(key_cap, std::max<std::size_t>(1, spec.key_pool));
  const std::vector<double> zipf =
      spec.dist == KeyDist::kZipf
          ? workload_harness::zipf_weights(static_cast<std::size_t>(pool),
                                           spec.zipf_s)
          : std::vector<double>{};
  for (std::size_t i = 0; i < spec.rows; ++i) {
    switch (spec.dist) {
      case KeyDist::kUniform:
        t.keys.push_back(rng.next_below(pool));
        break;
      case KeyDist::kZipf:
        t.keys.push_back(workload_harness::draw_rank(rng, zipf));
        break;
      case KeyDist::kAllEqual:
        t.keys.push_back(pool / 2);
        break;
      case KeyDist::kUniqueShuffled:
        t.keys.push_back(static_cast<std::uint64_t>(i) % key_cap);
        break;
    }
    t.values.push_back(rng.next_below(util::low_mask(spec.val_width) + 1));
  }
  if (spec.dist == KeyDist::kUniqueShuffled)
    std::shuffle(t.keys.begin(), t.keys.end(), rng);
  return t;
}

// -- Host scalar reference of every operator ---------------------------------

[[nodiscard]] inline bool ref_predicate(analytics::CmpOp op, std::uint64_t v,
                                        std::uint64_t lit) {
  switch (op) {
    case analytics::CmpOp::kLt: return v < lit;
    case analytics::CmpOp::kLe: return v <= lit;
    case analytics::CmpOp::kGt: return v > lit;
    case analytics::CmpOp::kGe: return v >= lit;
    case analytics::CmpOp::kEq: return v == lit;
    case analytics::CmpOp::kNe: return v != lit;
  }
  return false;
}

[[nodiscard]] inline analytics::SelectResult ref_select(
    const std::vector<std::uint64_t>& column, analytics::Predicate pred) {
  analytics::SelectResult out;
  out.mask.resize(column.size(), false);
  for (std::size_t i = 0; i < column.size(); ++i) {
    out.mask[i] = ref_predicate(pred.op, column[i], pred.literal);
    if (out.mask[i]) ++out.count;
  }
  return out;
}

[[nodiscard]] inline std::vector<analytics::AggRow> ref_group_aggregate(
    const std::vector<std::uint64_t>& keys,
    const std::vector<std::uint64_t>& values,
    const std::vector<bool>* mask = nullptr) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> groups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    groups[keys[i]].push_back(values[i]);
  }
  std::vector<analytics::AggRow> out;
  for (const auto& [key, vals] : groups) {
    analytics::AggRow row;
    row.key = key;
    row.count = vals.size();
    for (const std::uint64_t v : vals) row.sum += v;
    row.min = *std::min_element(vals.begin(), vals.end());
    row.max = *std::max_element(vals.begin(), vals.end());
    row.avg_q = row.sum / row.count;
    row.avg_r = row.sum % row.count;
    out.push_back(row);
  }
  return out;
}

/// Nested-loop reference join: probe rows ascending, build rows ascending
/// within each probe row — the order hash_join guarantees.
[[nodiscard]] inline std::vector<analytics::JoinPair> ref_hash_join(
    const std::vector<std::uint64_t>& left,
    const std::vector<std::uint64_t>& right) {
  std::vector<analytics::JoinPair> out;
  for (std::size_t i = 0; i < left.size(); ++i)
    for (std::size_t j = 0; j < right.size(); ++j)
      if (left[i] == right[j])
        out.push_back(analytics::JoinPair{static_cast<std::uint32_t>(i),
                                          static_cast<std::uint32_t>(j)});
  return out;
}

[[nodiscard]] inline std::vector<std::uint64_t> ref_sorted(
    std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

// -- Differential checks -----------------------------------------------------

[[nodiscard]] inline std::string diff_agg_rows(
    const std::vector<analytics::AggRow>& got,
    const std::vector<analytics::AggRow>& want, const std::string& what) {
  std::ostringstream oss;
  if (got.size() != want.size()) {
    oss << what << ": " << got.size() << " groups, reference has "
        << want.size();
    return oss.str();
  }
  for (std::size_t g = 0; g < got.size(); ++g) {
    const analytics::AggRow& a = got[g];
    const analytics::AggRow& b = want[g];
    if (a.key != b.key || a.count != b.count || a.sum != b.sum ||
        a.min != b.min || a.max != b.max || a.avg_q != b.avg_q ||
        a.avg_r != b.avg_r) {
      oss << what << ": group " << g << " (key " << a.key
          << ") differs: count " << a.count << "/" << b.count << ", sum "
          << a.sum << "/" << b.sum << ", min " << a.min << "/" << b.min
          << ", max " << a.max << "/" << b.max << ", avg " << a.avg_q << "r"
          << a.avg_r << "/" << b.avg_q << "r" << b.avg_r;
      return oss.str();
    }
  }
  return {};
}

/// Deterministic predicate battery for a column: edge literals (0, max)
/// plus a present value, across all six comparison ops.
[[nodiscard]] inline std::vector<analytics::Predicate> predicate_battery(
    const std::vector<std::uint64_t>& column, unsigned width) {
  std::vector<std::uint64_t> literals = {0, util::low_mask(width)};
  if (!column.empty()) literals.push_back(column[column.size() / 2]);
  std::vector<analytics::Predicate> out;
  for (const std::uint64_t lit : literals)
    for (const analytics::CmpOp op :
         {analytics::CmpOp::kLt, analytics::CmpOp::kLe, analytics::CmpOp::kGt,
          analytics::CmpOp::kGe, analytics::CmpOp::kEq, analytics::CmpOp::kNe})
      out.push_back(analytics::Predicate{op, lit});
  return out;
}

/// Run every operator over the pair of tables and compare against the host
/// reference bit for bit. "" on success.
[[nodiscard]] inline std::string check_operators(analytics::Runner& runner,
                                                 const TestTable& left,
                                                 const TestTable& right) {
  std::ostringstream oss;

  // Selection across the predicate battery (covers all-match / no-match
  // masks via the edge literals).
  std::vector<bool> last_mask(left.keys.size(), false);
  for (const analytics::Predicate pred :
       predicate_battery(left.values, left.val_width)) {
    const analytics::SelectResult got =
        analytics::select(runner, left.values, left.val_width, pred);
    const analytics::SelectResult want = ref_select(left.values, pred);
    if (got.mask != want.mask) {
      oss << "select op " << static_cast<int>(pred.op) << " lit "
          << pred.literal << ": mask differs";
      return oss.str();
    }
    if (got.count != want.count) {
      oss << "select op " << static_cast<int>(pred.op) << " lit "
          << pred.literal << ": count " << got.count << " != " << want.count;
      return oss.str();
    }
    last_mask = got.mask;
  }

  // Grouped aggregation, unmasked and masked.
  std::string diff = diff_agg_rows(
      analytics::group_aggregate(runner, left.keys, left.values,
                                 left.val_width),
      ref_group_aggregate(left.keys, left.values), "group_aggregate");
  if (!diff.empty()) return diff;
  diff = diff_agg_rows(
      analytics::group_aggregate(runner, left.keys, left.values,
                                 left.val_width, &last_mask),
      ref_group_aggregate(left.keys, left.values, &last_mask),
      "group_aggregate(masked)");
  if (!diff.empty()) return diff;

  // Hash join (key widths must agree for the compare wave).
  const unsigned join_width = std::max(left.key_width, right.key_width);
  const std::vector<analytics::JoinPair> got_join =
      analytics::hash_join(runner, left.keys, right.keys, join_width);
  const std::vector<analytics::JoinPair> want_join =
      ref_hash_join(left.keys, right.keys);
  if (got_join.size() != want_join.size()) {
    oss << "hash_join: " << got_join.size() << " pairs, reference has "
        << want_join.size();
    return oss.str();
  }
  for (std::size_t p = 0; p < got_join.size(); ++p) {
    if (got_join[p].left != want_join[p].left ||
        got_join[p].right != want_join[p].right) {
      oss << "hash_join: pair " << p << " is (" << got_join[p].left << ","
          << got_join[p].right << "), reference (" << want_join[p].left << ","
          << want_join[p].right << ")";
      return oss.str();
    }
  }

  // Sort: keys must match the reference exactly; the permutation must be a
  // valid row mapping (the network is not stable, so only validity and
  // key agreement are contractual).
  const analytics::SortResult got_sort =
      analytics::sort_by_key(runner, left.keys, left.key_width);
  if (got_sort.keys != ref_sorted(left.keys)) return "sort: keys not sorted";
  std::vector<bool> used(left.keys.size(), false);
  for (std::size_t i = 0; i < got_sort.perm.size(); ++i) {
    const std::uint32_t src = got_sort.perm[i];
    if (src >= left.keys.size() || used[src])
      return "sort: perm is not a permutation";
    used[src] = true;
    if (left.keys[src] != got_sort.keys[i])
      return "sort: perm does not map keys";
  }

  // Exact reduction.
  std::uint64_t want_sum = 0;
  for (const std::uint64_t v : left.values) want_sum += v;
  const std::uint64_t got_sum = analytics::tree_sum(
      runner, std::vector<std::uint64_t>(left.values.begin(),
                                         left.values.end()));
  if (got_sum != want_sum) {
    oss << "tree_sum: " << got_sum << " != " << want_sum;
    return oss.str();
  }
  return {};
}

/// Runner over a fresh server with the given backend; small stream/lane
/// shape so waves exercise batching and multi-request splits.
[[nodiscard]] inline analytics::RunnerConfig runner_config(
    core::Backend backend) {
  analytics::RunnerConfig cfg;
  cfg.server.streams = 2;
  cfg.server.lanes_per_stream = 16;
  cfg.server.queue_capacity = 64;
  cfg.server.batch_window = 500;
  cfg.server.device.backend = backend;
  return cfg;
}

}  // namespace apim::analytics_harness
