// TPC-H-style micro-benchmark schema and queries.
//
// Two seeded tables in the lineitem/orders mold, scaled down and width-
// restricted so every intermediate stays inside the APIM request range
// (widths 4..32, running sums < 2^32):
//
//   orders:   o_orderkey (w16, unique 1..N), o_custkey (w8),
//             o_status (w4)
//   lineitem: l_orderkey (w16, FK into orders), l_suppkey (w8),
//             l_quantity (w6, 1..50), l_price (w9, 10..511),
//             l_discount (w4, 0..10), l_shipmode (w4, 0..6)
//
// Three query shapes exercise the operator compositions end to end:
//   Q6-like  filter(quantity, discount) -> per-row price*discount
//            multiply wave -> tree-sum revenue
//   Q1-like  filter(quantity) -> group-aggregate price by shipmode
//   Q3-like  filter(orders.status) -> hash join lineitem x orders ->
//            group-aggregate price by custkey -> in-memory sort of the
//            per-customer revenues
//
// All three are exact under the default QoS; the golden tests commit
// their results for fixed seeds and check row-permutation invariance.
#pragma once

#include <cstdint>
#include <vector>

#include "analytics/operators.hpp"
#include "analytics/table.hpp"

namespace apim::analytics {

struct TpchConfig {
  std::size_t orders = 64;              ///< Order count, 1..65535.
  std::size_t lines_per_order_max = 6;  ///< 0..max lineitem rows per order.
  std::uint64_t seed = 1;
};

struct TpchTables {
  Table orders;
  Table lineitem;
};

/// Deterministic seeded generator (xoshiro256**): same config -> same
/// tables on every platform. Each column is built inside its table and
/// allocated once: order columns at `orders` rows, lineitem columns at
/// `orders * (lines_per_order_max + 1) / 2 + 64`, half a row per order
/// above the mean, which the benchmark's 16,384 orders never outgrow.
/// Throws std::invalid_argument when `orders` is outside 1..65535.
[[nodiscard]] TpchTables make_tables(const TpchConfig& cfg);

struct Q6Params {
  std::uint64_t quantity_lt = 24;  ///< l_quantity <  this
  std::uint64_t discount_ge = 4;   ///< l_discount >= this
};

struct Q6Result {
  std::uint64_t matching_rows = 0;  ///< Rows passing both predicates.
  std::uint64_t revenue = 0;        ///< sum(l_price * l_discount) over them.
};

/// Q6-like forecasting-revenue query: two selects, host mask AND, one
/// multiply wave over the surviving rows, tree-sum.
[[nodiscard]] Q6Result q6_revenue(Runner& runner, const TpchTables& t,
                                  const Q6Params& p = {});

struct Q1Params {
  std::uint64_t quantity_le = 40;  ///< l_quantity <= this
};

/// Q1-like pricing summary: filter on quantity, then group l_price by
/// l_shipmode (COUNT/SUM/MIN/MAX/AVG per group, keys ascending).
[[nodiscard]] std::vector<AggRow> q1_pricing_summary(Runner& runner,
                                                     const TpchTables& t,
                                                     const Q1Params& p = {});

struct Q3Params {
  std::uint64_t status_lt = 3;  ///< o_status < this qualifies the order.
};

struct Q3Result {
  std::uint64_t qualifying_orders = 0;  ///< Orders passing the status filter.
  std::uint64_t join_pairs = 0;         ///< lineitem rows joined to them.
  std::vector<AggRow> by_cust;          ///< Revenue grouped by o_custkey.
  /// Per-customer revenue sums in nondecreasing order (in-memory bitonic
  /// sort over the group sums; keys only — tie order is network order).
  std::vector<std::uint64_t> revenue_sorted;
};

/// Q3-like shipping-priority query: order filter, hash join on orderkey,
/// revenue grouped by customer, sorted customer revenues.
[[nodiscard]] Q3Result q3_shipping_priority(Runner& runner,
                                            const TpchTables& t,
                                            const Q3Params& p = {});

}  // namespace apim::analytics
