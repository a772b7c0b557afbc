#include "analytics/tpch.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::analytics {

using serve::OpKind;

TpchTables make_tables(const TpchConfig& cfg) {
  // Checked in every build type: o_orderkey is a 16-bit column.
  if (cfg.orders == 0 || cfg.orders >= 65536)
    throw std::invalid_argument("make_tables: orders must be in [1, 65535]");
  util::Xoshiro256 rng(cfg.seed);

  // Each column is built in place and allocated once (tpch.hpp).
  TpchTables t;
  const auto column = [](Table& table, const char* name, unsigned width,
                         std::size_t rows) -> std::vector<std::uint64_t>& {
    auto& values = table.columns.emplace_back(Column{name, width, {}}).values;
    values.reserve(rows);
    return values;
  };
  const std::size_t line_rows =
      cfg.orders * (cfg.lines_per_order_max + 1) / 2 + 64;
  // Reserved, so the references below stay valid.
  t.orders.columns.reserve(3);
  auto& o_orderkey = column(t.orders, "o_orderkey", 16, cfg.orders);
  auto& o_custkey = column(t.orders, "o_custkey", 8, cfg.orders);
  auto& o_status = column(t.orders, "o_status", 4, cfg.orders);
  t.lineitem.columns.reserve(6);
  auto& l_orderkey = column(t.lineitem, "l_orderkey", 16, line_rows);
  auto& l_suppkey = column(t.lineitem, "l_suppkey", 8, line_rows);
  auto& l_quantity = column(t.lineitem, "l_quantity", 6, line_rows);
  auto& l_price = column(t.lineitem, "l_price", 9, line_rows);
  auto& l_discount = column(t.lineitem, "l_discount", 4, line_rows);
  auto& l_shipmode = column(t.lineitem, "l_shipmode", 4, line_rows);

  // Customer pool smaller than the order count so grouping by customer
  // has real fan-in.
  const std::uint64_t customers =
      std::min<std::uint64_t>(256, std::max<std::uint64_t>(2, cfg.orders / 3));
  for (std::size_t o = 0; o < cfg.orders; ++o) {
    const std::uint64_t orderkey = static_cast<std::uint64_t>(o) + 1;
    o_orderkey.push_back(orderkey);
    o_custkey.push_back(rng.next_below(customers));
    o_status.push_back(rng.next_below(5));
    const std::uint64_t lines = rng.next_below(cfg.lines_per_order_max + 1);
    for (std::uint64_t l = 0; l < lines; ++l) {
      l_orderkey.push_back(orderkey);
      l_suppkey.push_back(rng.next_below(200));
      l_quantity.push_back(1 + rng.next_below(50));
      l_price.push_back(10 + rng.next_below(502));
      l_discount.push_back(rng.next_below(11));
      l_shipmode.push_back(rng.next_below(7));
    }
  }
  assert(t.orders.well_formed() && t.lineitem.well_formed());
  return t;
}

Q6Result q6_revenue(Runner& runner, const TpchTables& t, const Q6Params& p) {
  const Column& quantity = t.lineitem.col("l_quantity");
  const Column& discount = t.lineitem.col("l_discount");
  const Column& price = t.lineitem.col("l_price");

  const SelectResult by_qty =
      select(runner, quantity.values, quantity.width,
             Predicate{CmpOp::kLt, p.quantity_lt});
  const SelectResult by_disc =
      select(runner, discount.values, discount.width,
             Predicate{CmpOp::kGe, p.discount_ge});

  std::vector<bool> both(by_qty.mask.size(), false);
  for (std::size_t i = 0; i < both.size(); ++i)
    both[i] = by_qty.mask[i] && by_disc.mask[i];

  Q6Result out;
  out.matching_rows = mask_count(runner, both);

  // price * discount per surviving row in one multiply wave; the product
  // comes back at full 2w precision, so the revenue sum is exact.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (std::size_t i = 0; i < both.size(); ++i)
    if (both[i]) ops.emplace_back(price.values[i], discount.values[i]);
  const unsigned mul_width = std::max(price.width, discount.width);
  std::vector<std::uint64_t> products =
      runner.run_wave(OpKind::kMultiply, mul_width, ops);
  out.revenue = tree_sum(runner, std::move(products));
  assert(out.matching_rows == ops.size());
  return out;
}

std::vector<AggRow> q1_pricing_summary(Runner& runner, const TpchTables& t,
                                       const Q1Params& p) {
  const Column& quantity = t.lineitem.col("l_quantity");
  const Column& shipmode = t.lineitem.col("l_shipmode");
  const Column& price = t.lineitem.col("l_price");

  const SelectResult filt =
      select(runner, quantity.values, quantity.width,
             Predicate{CmpOp::kLe, p.quantity_le});
  return group_aggregate(runner, shipmode.values, price.values, price.width,
                         &filt.mask);
}

Q3Result q3_shipping_priority(Runner& runner, const TpchTables& t,
                              const Q3Params& p) {
  const Column& o_status = t.orders.col("o_status");
  const Column& o_orderkey = t.orders.col("o_orderkey");
  const Column& o_custkey = t.orders.col("o_custkey");
  const Column& l_orderkey = t.lineitem.col("l_orderkey");
  const Column& l_price = t.lineitem.col("l_price");

  Q3Result out;
  const SelectResult qual =
      select(runner, o_status.values, o_status.width,
             Predicate{CmpOp::kLt, p.status_lt});
  out.qualifying_orders = qual.count;

  // Build side: the qualifying orders' keys (remember each filtered row's
  // original order row so the join pairs map back to custkeys).
  std::vector<std::uint64_t> build_keys;
  std::vector<std::uint32_t> build_rows;
  for (std::size_t o = 0; o < qual.mask.size(); ++o) {
    if (!qual.mask[o]) continue;
    build_keys.push_back(o_orderkey.values[o]);
    build_rows.push_back(static_cast<std::uint32_t>(o));
  }

  const std::vector<JoinPair> pairs =
      hash_join(runner, l_orderkey.values, build_keys, o_orderkey.width);
  out.join_pairs = pairs.size();

  std::vector<std::uint64_t> custkeys, prices;
  custkeys.reserve(pairs.size());
  prices.reserve(pairs.size());
  for (const JoinPair& jp : pairs) {
    custkeys.push_back(o_custkey.values[build_rows[jp.right]]);
    prices.push_back(l_price.values[jp.left]);
  }
  out.by_cust = group_aggregate(runner, custkeys, prices, l_price.width);

  // Sorted per-customer revenue: width derived from the largest sum so the
  // compare wave covers every operand.
  std::vector<std::uint64_t> sums;
  sums.reserve(out.by_cust.size());
  unsigned width = 4;
  for (const AggRow& row : out.by_cust) {
    sums.push_back(row.sum);
    width = std::max(width, util::bit_width(row.sum));
  }
  assert(width <= 32);
  out.revenue_sorted = sort_by_key(runner, sums, width).keys;
  return out;
}

}  // namespace apim::analytics
