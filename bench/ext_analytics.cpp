// Extension bench: TPC-H-style analytics through the serving layer.
//
// Runs the three query shapes of src/analytics/tpch.hpp (Q6-like
// filter+multiply+sum, Q1-like filter+group-aggregate, Q3-like
// filter+join+group+sort) over seeded lineitem/orders-style tables, with
// every in-memory micro-op (compare / popcount / add / multiply)
// dispatched through a full serve::Server — admission, dynamic batching,
// DRR, health — via analytics::Runner. Reports per query: wave/request/op
// counts, simulated cycles and energy, and op throughput; as a table +
// CSV (+ optional --json report folded into BENCH_9.json by
// scripts/bench_pr.sh).
//
// Shape checks pin the exactness story: every query result equals a pure
// host-side oracle bit for bit; kFast and kBitsliced backends agree
// bit-identically (a bit-level engine spot check runs on a tiny table
// set); and the relaxed-aggregate variant (Q1 under a nonzero QoS relax
// level) never costs more simulated cycles than exact — predicates, join
// keys, counts and min/max stay exact by the kernel contract, only SUM
// reduction adds approximate.
//
// Flags: --threads N, --json <path>, --out <path>, --smoke (small tables).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analytics/operators.hpp"
#include "analytics/runner.hpp"
#include "analytics/tpch.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "serve/qos_table.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using apim::analytics::AggRow;
using apim::analytics::Q3Result;
using apim::analytics::Q6Result;
using apim::analytics::Runner;
using apim::analytics::RunnerConfig;
using apim::analytics::TpchConfig;
using apim::analytics::TpchTables;

RunnerConfig runner_config(apim::core::Backend backend) {
  RunnerConfig cfg;
  cfg.server.streams = 4;
  cfg.server.lanes_per_stream = 64;
  cfg.server.queue_capacity = 1024;
  cfg.server.batch_window = 1000;
  cfg.server.device.backend = backend;
  return cfg;
}

struct QueryRun {
  std::string name;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t waves = 0;
  std::uint64_t requests = 0;
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  double energy_pj = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t batched_ops = 0;

  [[nodiscard]] double ops_per_kcycle() const {
    return cycles == 0 ? 0.0
                       : 1000.0 * static_cast<double>(ops) /
                             static_cast<double>(cycles);
  }
};

template <typename Fn>
QueryRun measure(const std::string& name, std::uint64_t rows_in,
                 RunnerConfig cfg, Fn&& fn) {
  Runner runner(std::move(cfg));
  QueryRun run;
  run.name = name;
  run.rows_in = rows_in;
  run.rows_out = fn(runner);
  run.waves = runner.waves();
  run.requests = runner.requests();
  run.ops = runner.ops();
  run.cycles = runner.virtual_now();
  run.energy_pj = runner.energy_pj();
  run.batches = runner.snapshot().batches;
  run.batched_ops = runner.snapshot().batched_ops;
  return run;
}

// -- Pure host oracle of the three queries (no device model involved) --------

struct HostQ1Row {
  std::uint64_t key, count, sum, min, max;
};

Q6Result host_q6(const TpchTables& t, const apim::analytics::Q6Params& p) {
  const auto& qty = t.lineitem.col("l_quantity").values;
  const auto& disc = t.lineitem.col("l_discount").values;
  const auto& price = t.lineitem.col("l_price").values;
  Q6Result r;
  for (std::size_t i = 0; i < qty.size(); ++i) {
    if (qty[i] < p.quantity_lt && disc[i] >= p.discount_ge) {
      ++r.matching_rows;
      r.revenue += price[i] * disc[i];
    }
  }
  return r;
}

std::vector<HostQ1Row> host_q1(const TpchTables& t,
                               const apim::analytics::Q1Params& p) {
  const auto& qty = t.lineitem.col("l_quantity").values;
  const auto& mode = t.lineitem.col("l_shipmode").values;
  const auto& price = t.lineitem.col("l_price").values;
  std::map<std::uint64_t, std::vector<std::uint64_t>> groups;
  for (std::size_t i = 0; i < qty.size(); ++i)
    if (qty[i] <= p.quantity_le) groups[mode[i]].push_back(price[i]);
  std::vector<HostQ1Row> out;
  for (const auto& [key, vals] : groups) {
    HostQ1Row row{key, vals.size(), 0,
                  *std::min_element(vals.begin(), vals.end()),
                  *std::max_element(vals.begin(), vals.end())};
    for (const std::uint64_t v : vals) row.sum += v;
    out.push_back(row);
  }
  return out;
}

struct HostQ3 {
  std::uint64_t qualifying_orders = 0;
  std::uint64_t join_pairs = 0;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      by_cust;  ///< cust -> (count, revenue)
  std::vector<std::uint64_t> revenue_sorted;
};

HostQ3 host_q3(const TpchTables& t, const apim::analytics::Q3Params& p) {
  const auto& status = t.orders.col("o_status").values;
  const auto& okey = t.orders.col("o_orderkey").values;
  const auto& cust = t.orders.col("o_custkey").values;
  const auto& lkey = t.lineitem.col("l_orderkey").values;
  const auto& price = t.lineitem.col("l_price").values;
  HostQ3 r;
  std::map<std::uint64_t, std::uint64_t> cust_of_order;
  for (std::size_t o = 0; o < status.size(); ++o) {
    if (status[o] >= p.status_lt) continue;
    ++r.qualifying_orders;
    cust_of_order[okey[o]] = cust[o];
  }
  for (std::size_t i = 0; i < lkey.size(); ++i) {
    const auto it = cust_of_order.find(lkey[i]);
    if (it == cust_of_order.end()) continue;
    ++r.join_pairs;
    auto& [count, revenue] = r.by_cust[it->second];
    ++count;
    revenue += price[i];
  }
  for (const auto& [c, cr] : r.by_cust) r.revenue_sorted.push_back(cr.second);
  std::sort(r.revenue_sorted.begin(), r.revenue_sorted.end());
  return r;
}

bool q1_matches(const std::vector<AggRow>& got,
                const std::vector<HostQ1Row>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key || got[i].count != want[i].count ||
        got[i].sum != want[i].sum || got[i].min != want[i].min ||
        got[i].max != want[i].max ||
        got[i].avg_q != want[i].sum / want[i].count ||
        got[i].avg_r != want[i].sum % want[i].count)
      return false;
  }
  return true;
}

bool q3_matches(const Q3Result& got, const HostQ3& want) {
  if (got.qualifying_orders != want.qualifying_orders) return false;
  if (got.join_pairs != want.join_pairs) return false;
  if (got.by_cust.size() != want.by_cust.size()) return false;
  std::size_t g = 0;
  for (const auto& [cust, cr] : want.by_cust) {
    const AggRow& row = got.by_cust[g++];
    if (row.key != cust || row.count != cr.first || row.sum != cr.second)
      return false;
  }
  return got.revenue_sorted == want.revenue_sorted;
}

struct AllResults {
  Q6Result q6;
  std::vector<AggRow> q1;
  Q3Result q3;
};

bool results_identical(const AllResults& a, const AllResults& b) {
  if (a.q6.matching_rows != b.q6.matching_rows ||
      a.q6.revenue != b.q6.revenue)
    return false;
  if (a.q1.size() != b.q1.size() || a.q3.by_cust.size() != b.q3.by_cust.size())
    return false;
  for (std::size_t i = 0; i < a.q1.size(); ++i)
    if (a.q1[i].key != b.q1[i].key || a.q1[i].sum != b.q1[i].sum ||
        a.q1[i].count != b.q1[i].count || a.q1[i].min != b.q1[i].min ||
        a.q1[i].max != b.q1[i].max)
      return false;
  return a.q3.join_pairs == b.q3.join_pairs &&
         a.q3.revenue_sorted == b.q3.revenue_sorted;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = apim::util::configure_threads(argc, argv);
  const bool smoke = apim::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = apim::bench::json_output_path(argc, argv);
  const std::string csv_path =
      apim::bench::csv_output_path(argc, argv, "ext_analytics.csv");

  std::printf("Analytics: TPC-H-style queries through the serving layer\n");
  std::printf("(host threads: %zu%s)\n\n", threads, smoke ? ", smoke" : "");

  TpchConfig tcfg;
  tcfg.orders = smoke ? 48 : 256;
  tcfg.lines_per_order_max = smoke ? 5 : 8;
  tcfg.seed = 1;
  const TpchTables tables = apim::analytics::make_tables(tcfg);
  const std::uint64_t lrows = tables.lineitem.rows();
  const std::uint64_t orows = tables.orders.rows();
  std::printf("Tables: %llu orders, %llu lineitem rows (seed %llu)\n\n",
              static_cast<unsigned long long>(orows),
              static_cast<unsigned long long>(lrows),
              static_cast<unsigned long long>(tcfg.seed));

  const apim::analytics::Q6Params q6p;
  const apim::analytics::Q1Params q1p;
  const apim::analytics::Q3Params q3p;

  // -- Exact runs on the batch tier, one fresh server per query ------------
  AllResults exact;
  const QueryRun q6_run = measure(
      "q6-filter-mul-sum", lrows,
      runner_config(apim::core::Backend::kBitsliced), [&](Runner& r) {
        exact.q6 = apim::analytics::q6_revenue(r, tables, q6p);
        return exact.q6.matching_rows;
      });
  const QueryRun q1_run = measure(
      "q1-group-aggregate", lrows,
      runner_config(apim::core::Backend::kBitsliced), [&](Runner& r) {
        exact.q1 = apim::analytics::q1_pricing_summary(r, tables, q1p);
        return static_cast<std::uint64_t>(exact.q1.size());
      });
  const QueryRun q3_run = measure(
      "q3-join-group-sort", lrows + orows,
      runner_config(apim::core::Backend::kBitsliced), [&](Runner& r) {
        exact.q3 = apim::analytics::q3_shipping_priority(r, tables, q3p);
        return static_cast<std::uint64_t>(exact.q3.by_cust.size());
      });
  const std::vector<const QueryRun*> runs = {&q6_run, &q1_run, &q3_run};

  const Q6Result oracle_q6 = host_q6(tables, q6p);
  const std::vector<HostQ1Row> oracle_q1 = host_q1(tables, q1p);
  const HostQ3 oracle_q3 = host_q3(tables, q3p);
  const bool q6_oracle_ok = exact.q6.matching_rows == oracle_q6.matching_rows &&
                            exact.q6.revenue == oracle_q6.revenue;
  const bool q1_oracle_ok = q1_matches(exact.q1, oracle_q1);
  const bool q3_oracle_ok = q3_matches(exact.q3, oracle_q3);

  // -- Backend A/B: kFast vs kBitsliced, same queries -----------------------
  const auto run_all = [&](apim::core::Backend backend, double* seconds) {
    const auto t0 = std::chrono::steady_clock::now();
    AllResults r;
    Runner q6r(runner_config(backend));
    r.q6 = apim::analytics::q6_revenue(q6r, tables, q6p);
    Runner q1r(runner_config(backend));
    r.q1 = apim::analytics::q1_pricing_summary(q1r, tables, q1p);
    Runner q3r(runner_config(backend));
    r.q3 = apim::analytics::q3_shipping_priority(q3r, tables, q3p);
    const auto t1 = std::chrono::steady_clock::now();
    *seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
  };
  double word_s = 0.0, sliced_s = 0.0;
  const AllResults word_results =
      run_all(apim::core::Backend::kFast, &word_s);
  const AllResults sliced_results =
      run_all(apim::core::Backend::kBitsliced, &sliced_s);
  const bool backends_identical =
      results_identical(word_results, sliced_results) &&
      results_identical(sliced_results, exact);

  // Bit-level engine spot check: every NOR simulated, so a tiny table set.
  TpchConfig engine_cfg;
  engine_cfg.orders = 12;
  engine_cfg.lines_per_order_max = 3;
  engine_cfg.seed = 3;
  const TpchTables engine_tables = apim::analytics::make_tables(engine_cfg);
  Runner engine_runner(runner_config(apim::core::Backend::kBitLevel));
  Runner engine_ref(runner_config(apim::core::Backend::kFast));
  const Q6Result engine_q6 =
      apim::analytics::q6_revenue(engine_runner, engine_tables, q6p);
  const Q6Result engine_q6_ref =
      apim::analytics::q6_revenue(engine_ref, engine_tables, q6p);
  const bool engine_identical =
      engine_q6.matching_rows == engine_q6_ref.matching_rows &&
      engine_q6.revenue == engine_q6_ref.revenue;

  // -- Relaxed-aggregate variant: Q1 under a QoS relax level ----------------
  constexpr unsigned kRelaxBits = 8;
  RunnerConfig relaxed_cfg = runner_config(apim::core::Backend::kBitsliced);
  relaxed_cfg.server.escalate_on_miss = false;
  relaxed_cfg.qos.set(relaxed_cfg.app,
                      apim::serve::QosTableEntry{kRelaxBits, 0.0, true, false});
  std::vector<AggRow> relaxed_q1;
  const QueryRun q1_relaxed_run =
      measure("q1-relaxed", lrows, std::move(relaxed_cfg), [&](Runner& r) {
        relaxed_q1 = apim::analytics::q1_pricing_summary(r, tables, q1p);
        return static_cast<std::uint64_t>(relaxed_q1.size());
      });
  double max_sum_rel_err = 0.0;
  bool relaxed_shape_ok = relaxed_q1.size() == exact.q1.size();
  for (std::size_t g = 0; relaxed_shape_ok && g < relaxed_q1.size(); ++g) {
    // Counts/min/max ride exact kernels; only the SUM may deviate.
    relaxed_shape_ok = relaxed_q1[g].key == exact.q1[g].key &&
                       relaxed_q1[g].count == exact.q1[g].count &&
                       relaxed_q1[g].min == exact.q1[g].min &&
                       relaxed_q1[g].max == exact.q1[g].max;
    const double want = static_cast<double>(exact.q1[g].sum);
    const double got = static_cast<double>(relaxed_q1[g].sum);
    max_sum_rel_err = std::max(
        max_sum_rel_err, std::abs(got - want) / std::max(want, 1.0));
  }
  const double relaxed_cycles_ratio =
      q1_run.cycles == 0 ? 0.0
                         : static_cast<double>(q1_relaxed_run.cycles) /
                               static_cast<double>(q1_run.cycles);
  const double relaxed_energy_ratio =
      q1_run.energy_pj == 0.0 ? 0.0
                              : q1_relaxed_run.energy_pj / q1_run.energy_pj;

  // -- Report ---------------------------------------------------------------
  apim::util::TextTable text({"query", "rows in", "rows out", "waves",
                              "reqs", "ops", "cycles", "energy pJ",
                              "ops/kcyc"});
  text.set_title("Exact queries, kBitsliced, 4 streams x 64 lanes");
  apim::util::CsvWriter csv(csv_path);
  csv.write_row({"query", "rows_in", "rows_out", "waves", "requests", "ops",
                 "cycles", "energy_pj", "ops_per_kcycle", "batches",
                 "batched_ops"});
  const auto emit = [&](const QueryRun& r) {
    text.add_row({r.name, std::to_string(r.rows_in),
                  std::to_string(r.rows_out), std::to_string(r.waves),
                  std::to_string(r.requests), std::to_string(r.ops),
                  std::to_string(r.cycles),
                  apim::util::format_sci(r.energy_pj, 3),
                  apim::util::format_double(r.ops_per_kcycle(), 2)});
    csv.write_row({r.name, std::to_string(r.rows_in),
                   std::to_string(r.rows_out), std::to_string(r.waves),
                   std::to_string(r.requests), std::to_string(r.ops),
                   std::to_string(r.cycles),
                   apim::util::format_sci(r.energy_pj, 6),
                   apim::util::format_double(r.ops_per_kcycle(), 4),
                   std::to_string(r.batches), std::to_string(r.batched_ops)});
  };
  for (const QueryRun* r : runs) emit(*r);
  emit(q1_relaxed_run);
  std::printf("%s\n", text.render().c_str());
  if (csv.ok()) std::printf("Wrote %s\n", csv_path.c_str());

  std::printf("\nQ6 revenue %llu over %llu rows; Q3 %llu pairs, %zu groups\n",
              static_cast<unsigned long long>(exact.q6.revenue),
              static_cast<unsigned long long>(exact.q6.matching_rows),
              static_cast<unsigned long long>(exact.q3.join_pairs),
              exact.q3.by_cust.size());
  std::printf("Backend A/B: kFast %.3fs, kBitsliced %.3fs (%s)\n",
              word_s, sliced_s,
              backends_identical ? "bit-identical" : "MISMATCH");
  std::printf("Relaxed Q1 (m=%u): cycles ratio %.3f, energy ratio %.3f, "
              "max sum rel err %.3g\n\n",
              kRelaxBits, relaxed_cycles_ratio, relaxed_energy_ratio,
              max_sum_rel_err);

  // -- Shape checks ---------------------------------------------------------
  apim::bench::ShapeChecker checker;
  checker.check("q6 matches the host oracle exactly", q6_oracle_ok);
  checker.check("q1 matches the host oracle exactly", q1_oracle_ok);
  checker.check("q3 matches the host oracle exactly", q3_oracle_ok);
  checker.check("kFast and kBitsliced query results bit-identical",
                backends_identical);
  checker.check("bit-level engine agrees on the spot-check query",
                engine_identical);
  checker.check("every query ran through the server's batcher",
                q6_run.batches > 0 && q1_run.batches > 0 &&
                    q3_run.batches > 0 &&
                    q6_run.batched_ops >= q6_run.ops &&
                    q1_run.batched_ops >= q1_run.ops &&
                    q3_run.batched_ops >= q3_run.ops);
  checker.check("relaxed aggregates keep exact counts/min/max and grouping",
                relaxed_shape_ok);
  checker.check("relaxed aggregates cost no more cycles than exact",
                q1_relaxed_run.cycles <= q1_run.cycles);

  if (!json_path.empty()) {
    apim::util::JsonValue report = apim::util::JsonValue::object();
    report.set("bench", "ext_analytics");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("orders", static_cast<std::uint64_t>(orows));
    report.set("lineitem_rows", static_cast<std::uint64_t>(lrows));
    apim::util::JsonValue queries = apim::util::JsonValue::array();
    const auto add_query = [&](const QueryRun& r) {
      apim::util::JsonValue q = apim::util::JsonValue::object();
      q.set("query", r.name);
      q.set("rows_in", r.rows_in);
      q.set("rows_out", r.rows_out);
      q.set("waves", r.waves);
      q.set("requests", r.requests);
      q.set("ops", r.ops);
      q.set("cycles", r.cycles);
      q.set("energy_pj", r.energy_pj);
      q.set("ops_per_kcycle", r.ops_per_kcycle());
      q.set("batches", r.batches);
      q.set("batched_ops", r.batched_ops);
      queries.append(std::move(q));
    };
    for (const QueryRun* r : runs) add_query(*r);
    add_query(q1_relaxed_run);
    report.set("queries", std::move(queries));
    report.set("exact_matches_oracle",
               q6_oracle_ok && q1_oracle_ok && q3_oracle_ok);
    report.set("backends_bit_identical", backends_identical);
    report.set("engine_spot_check_identical", engine_identical);
    report.set("relax_bits", static_cast<std::uint64_t>(kRelaxBits));
    report.set("relaxed_vs_exact_cycles_ratio", relaxed_cycles_ratio);
    report.set("relaxed_vs_exact_energy_ratio", relaxed_energy_ratio);
    report.set("relaxed_max_sum_rel_err", max_sum_rel_err);
    report.set("shape_checks", checker.to_json());
    apim::bench::write_json_report(json_path, report);
  }
  return checker.finish();
}
