#include "analytics/operators.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <stdexcept>

#include "arith/compare_units.hpp"
#include "util/bitops.hpp"

namespace apim::analytics {

using serve::OpKind;
using util::bit_width;
using util::low_mask;

namespace {

using OpVec = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Width a SUM round issues at: covers the largest operand, floored to the
/// request minimum. Checked in every build type: a wider operand would be
/// clamped to the word width, and the sum with it.
unsigned round_width(const OpVec& ops) {
  unsigned w = 4;
  for (const auto& [a, b] : ops)
    w = std::max({w, bit_width(a), bit_width(b)});
  if (w > 32)
    throw std::invalid_argument("tree_sum: a partial sum exceeds 32 bits");
  return w;
}

/// Reduce each group's list to one value in pairwise rounds, batched
/// ACROSS groups: one `op` wave at `width(ops)` covers every group's
/// pairs, so the batcher sees wide same-shape waves instead of per-group
/// trickles. Each pair leaves `pick(a, b, result)`; an odd last value
/// passes to the next round, and an empty group reduces to 0.
/// `force_exact` pins the wave to relax 0 even when the analytic tenant
/// runs relaxed — required for COUNT reductions, which are cardinalities.
template <class Width, class Pick>
std::vector<std::uint64_t> grouped_reduce(
    Runner& runner, std::vector<std::vector<std::uint64_t>> groups,
    OpKind op, Width width, Pick pick, bool force_exact = false) {
  for (;;) {
    OpVec ops;
    for (const auto& g : groups)
      for (std::size_t k = 0; k + 1 < g.size(); k += 2)
        ops.emplace_back(g[k], g[k + 1]);
    if (ops.empty()) break;
    const std::vector<std::uint64_t> results =
        runner.run_wave(op, width(ops), ops, force_exact);
    std::size_t next = 0;
    for (auto& g : groups) {
      std::vector<std::uint64_t> survivors;
      survivors.reserve(g.size() / 2 + 1);
      for (std::size_t k = 0; k + 1 < g.size(); k += 2)
        survivors.push_back(pick(g[k], g[k + 1], results[next++]));
      if (g.size() % 2 != 0) survivors.push_back(g.back());
      g = std::move(survivors);
    }
  }
  std::vector<std::uint64_t> out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.empty() ? 0 : g.front());
  return out;
}

/// SUM of each group through kVectorAdd rounds sized to their operands.
std::vector<std::uint64_t> grouped_tree_sum(
    Runner& runner, std::vector<std::vector<std::uint64_t>> groups,
    bool force_exact = false) {
  return grouped_reduce(
      runner, std::move(groups), OpKind::kVectorAdd, round_width,
      [](std::uint64_t, std::uint64_t, std::uint64_t sum) { return sum; },
      force_exact);
}

/// MIN or MAX of each group through kCompare tournament rounds at
/// `width`. Ties keep the earlier operand.
std::vector<std::uint64_t> grouped_tournament(
    Runner& runner, std::vector<std::vector<std::uint64_t>> groups,
    unsigned width, bool take_min) {
  return grouped_reduce(
      runner, std::move(groups), OpKind::kCompare,
      [width](const OpVec&) { return width; },
      [take_min](std::uint64_t a, std::uint64_t b, std::uint64_t code) {
        const bool first_wins =
            take_min ? code != arith::kCmpGt : code != arith::kCmpLt;
        return first_wins ? a : b;
      });
}

/// Pack a membership bit-vector into 32-bit words (LSB-first), the shape
/// the in-memory popcount counts.
std::vector<std::uint64_t> pack_mask_words(const std::vector<bool>& mask) {
  std::vector<std::uint64_t> words((mask.size() + 31) / 32, 0);
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) words[i / 32] |= std::uint64_t{1} << (i % 32);
  return words;
}

/// FNV-1a of a key value, the controller-side bucket hash (same family as
/// cluster::Placement::shard_of).
std::uint64_t fnv1a64(std::uint64_t key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

bool predicate_holds(CmpOp op, std::uint64_t code) {
  switch (op) {
    case CmpOp::kLt: return code == arith::kCmpLt;
    case CmpOp::kLe: return code != arith::kCmpGt;
    case CmpOp::kGt: return code == arith::kCmpGt;
    case CmpOp::kGe: return code != arith::kCmpLt;
    case CmpOp::kEq: return code == arith::kCmpEq;
    case CmpOp::kNe: return code != arith::kCmpEq;
  }
  return false;
}

SelectResult select(Runner& runner, std::span<const std::uint64_t> column,
                    unsigned width, Predicate pred) {
  SelectResult out;
  out.mask.resize(column.size(), false);
  if (column.empty()) return out;

  OpVec ops;
  ops.reserve(column.size());
  for (const std::uint64_t v : column) ops.emplace_back(v, pred.literal);
  const std::vector<std::uint64_t> codes =
      runner.run_wave(OpKind::kCompare, width, ops);
  for (std::size_t i = 0; i < column.size(); ++i)
    out.mask[i] = predicate_holds(pred.op, codes[i]);

  out.count = mask_count(runner, out.mask);
  return out;
}

std::uint64_t mask_count(Runner& runner, const std::vector<bool>& mask) {
  if (mask.empty()) return 0;
  OpVec words;
  for (const std::uint64_t w : pack_mask_words(mask)) words.emplace_back(w, 0);
  std::vector<std::uint64_t> counts =
      runner.run_wave(OpKind::kPopcount, 32, words);
  // The count reduction stays exact under any QoS relax level: a
  // cardinality feeds control flow (and AVG), never an approximable value.
  std::vector<std::vector<std::uint64_t>> one_group;
  one_group.push_back(std::move(counts));
  return grouped_tree_sum(runner, std::move(one_group),
                          /*force_exact=*/true)
      .front();
}

std::vector<AggRow> group_aggregate(Runner& runner,
                                    std::span<const std::uint64_t> keys,
                                    std::span<const std::uint64_t> values,
                                    unsigned val_width,
                                    const std::vector<bool>* mask) {
  // Checked in every build type: a short `values` or `mask` would be read
  // out of range.
  if (values.size() != keys.size() ||
      (mask != nullptr && mask->size() != keys.size())) {
    throw std::invalid_argument(
        "group_aggregate: keys, values and mask differ in size");
  }

  // Controller-side hash grouping (std::map: deterministic key order).
  std::map<std::uint64_t, std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    groups[keys[i]].push_back(static_cast<std::uint32_t>(i));
  }
  if (groups.empty()) return {};

  const std::size_t n_groups = groups.size();
  std::vector<std::vector<std::uint64_t>> sum_in, count_in, minmax_in;
  sum_in.reserve(n_groups);
  count_in.reserve(n_groups);
  minmax_in.reserve(n_groups);
  for (const auto& [key, members] : groups) {
    std::vector<std::uint64_t> vals;
    vals.reserve(members.size());
    for (const std::uint32_t row : members) vals.push_back(values[row]);
    minmax_in.push_back(vals);
    sum_in.push_back(std::move(vals));
    // COUNT: popcount of the group's membership mask over the table.
    std::vector<bool> membership(keys.size(), false);
    for (const std::uint32_t row : members) membership[row] = true;
    count_in.push_back(pack_mask_words(membership));
  }

  // One popcount wave covers every group's mask words; per-word counts
  // then reduce group-wise like the sums.
  {
    OpVec word_ops;
    std::vector<std::size_t> group_words;
    for (const auto& words : count_in) {
      group_words.push_back(words.size());
      for (const std::uint64_t w : words) word_ops.emplace_back(w, 0);
    }
    const std::vector<std::uint64_t> counts =
        runner.run_wave(OpKind::kPopcount, 32, word_ops);
    std::size_t next = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      count_in[g].assign(counts.begin() + static_cast<std::ptrdiff_t>(next),
                         counts.begin() +
                             static_cast<std::ptrdiff_t>(next + group_words[g]));
      next += group_words[g];
    }
  }

  const std::vector<std::uint64_t> sums =
      grouped_tree_sum(runner, std::move(sum_in));
  const std::vector<std::uint64_t> counts = grouped_tree_sum(
      runner, std::move(count_in), /*force_exact=*/true);
  const std::vector<std::uint64_t> mins =
      grouped_tournament(runner, minmax_in, val_width, /*take_min=*/true);
  const std::vector<std::uint64_t> maxs =
      grouped_tournament(runner, std::move(minmax_in), val_width,
                         /*take_min=*/false);

  std::vector<AggRow> out;
  out.reserve(n_groups);
  std::size_t g = 0;
  for (const auto& [key, members] : groups) {
    AggRow row;
    row.key = key;
    row.count = counts[g];
    row.sum = sums[g];
    row.min = mins[g];
    row.max = maxs[g];
    assert(row.count == members.size());
    // AVG = exact (quotient, remainder) pair; the division itself is
    // peripheral ALU work on the two in-memory aggregates.
    row.avg_q = row.count == 0 ? 0 : row.sum / row.count;
    row.avg_r = row.count == 0 ? 0 : row.sum % row.count;
    out.push_back(row);
    ++g;
  }
  return out;
}

std::vector<JoinPair> hash_join(Runner& runner,
                                std::span<const std::uint64_t> left_keys,
                                std::span<const std::uint64_t> right_keys,
                                unsigned key_width) {
  std::vector<JoinPair> out;
  if (left_keys.empty() || right_keys.empty()) return out;

  // Build side: FNV-1a buckets at the controller. Bucket lists hold
  // ascending right-row indices.
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(8, right_keys.size()));
  std::vector<std::vector<std::uint32_t>> table(buckets);
  for (std::size_t j = 0; j < right_keys.size(); ++j)
    table[fnv1a64(right_keys[j]) & (buckets - 1)].push_back(
        static_cast<std::uint32_t>(j));

  // Probe side: every bucket candidate becomes one in-memory equality
  // compare — emitted pairs are proven equal in memory, the host hash only
  // pruned the candidate set.
  OpVec ops;
  std::vector<JoinPair> candidates;
  for (std::size_t i = 0; i < left_keys.size(); ++i) {
    for (const std::uint32_t j :
         table[fnv1a64(left_keys[i]) & (buckets - 1)]) {
      ops.emplace_back(left_keys[i], right_keys[j]);
      candidates.push_back(JoinPair{static_cast<std::uint32_t>(i), j});
    }
  }
  if (ops.empty()) return out;
  const std::vector<std::uint64_t> codes =
      runner.run_wave(OpKind::kCompare, key_width, ops);
  for (std::size_t c = 0; c < candidates.size(); ++c)
    if (codes[c] == arith::kCmpEq) out.push_back(candidates[c]);
  return out;
}

SortResult sort_by_key(Runner& runner, std::span<const std::uint64_t> keys,
                       unsigned width) {
  SortResult out;
  out.keys.assign(keys.begin(), keys.end());
  out.perm.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out.perm[i] = static_cast<std::uint32_t>(i);
  if (keys.size() < 2) return out;

  // Pad to the network size with max-value sentinels (they never exchange
  // below an equal real key, and are dropped on extraction).
  const std::size_t p = std::bit_ceil(keys.size());
  const std::uint64_t sentinel = low_mask(width);
  std::vector<std::uint64_t> k(p, sentinel);
  std::vector<std::uint32_t> idx(p);
  for (std::size_t i = 0; i < p; ++i)
    idx[i] = static_cast<std::uint32_t>(i);
  std::copy(keys.begin(), keys.end(), k.begin());

  for (std::size_t stage = 2; stage <= p; stage <<= 1) {
    for (std::size_t jump = stage >> 1; jump > 0; jump >>= 1) {
      OpVec ops;
      std::vector<std::pair<std::size_t, std::size_t>> exchanges;
      for (std::size_t i = 0; i < p; ++i) {
        const std::size_t l = i ^ jump;
        if (l <= i) continue;
        ops.emplace_back(k[i], k[l]);
        exchanges.emplace_back(i, l);
      }
      const std::vector<std::uint64_t> codes =
          runner.run_wave(OpKind::kCompare, width, ops);
      for (std::size_t c = 0; c < exchanges.size(); ++c) {
        const auto [i, l] = exchanges[c];
        const bool ascending = (i & stage) == 0;
        const bool swap = ascending ? codes[c] == arith::kCmpGt
                                    : codes[c] == arith::kCmpLt;
        if (swap) {
          std::swap(k[i], k[l]);
          std::swap(idx[i], idx[l]);
        }
      }
    }
  }

  std::size_t o = 0;
  for (std::size_t i = 0; i < p; ++i) {
    if (idx[i] >= keys.size()) continue;  // Sentinel slot.
    out.keys[o] = k[i];
    out.perm[o] = idx[i];
    ++o;
  }
  assert(o == keys.size());
  return out;
}

std::uint64_t tree_sum(Runner& runner, std::vector<std::uint64_t> values) {
  if (values.empty()) return 0;
  std::vector<std::vector<std::uint64_t>> one_group;
  one_group.push_back(std::move(values));
  return grouped_tree_sum(runner, std::move(one_group)).front();
}

}  // namespace apim::analytics
