// Extension bench: skew-resistant multi-chip serving (src/cluster).
//
// A 4-chip cluster faces a Zipf(1.1) tenant population whose popular
// half has been colocated onto chip 0 by a naive placement — the classic
// hot-shard outage-in-waiting. Two runs on identical traces:
//
//   static   — placement frozen (rebalancing disabled): chip 0 saturates
//              while chips 1..3 idle, queues and tails blow up;
//   migrate  — the EWMA rebalancer moves hot shards in virtual time,
//              paying real interconnect cycles/energy for every shard
//              move, mid-migration hold and stale-view forward.
//
// Shape checks assert the headline scale-out result: with migration on,
// saturated cluster throughput rises and p99 edge latency falls versus
// static placement, the per-chip Jain index climbs toward 1, migrations
// actually fire and the cross-shard interconnect share is nonzero (the
// win is not an artifact of free data movement). Offered load is sized
// from a measured single-chip capacity calibration, so the story is
// robust to device-model changes.
//
// Flags: --threads N, --json <path>, --out <csv>, --smoke (smaller
// traces for CI), --trace <path> (capture the migrate run's event log,
// verify it in process and write apim-trace v1 for apim_trace_lint).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster_harness.hpp"
#include "serve/trace.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using apim::cluster::ClusterConfig;
using apim::cluster::Placement;
using apim::cluster_harness::ClusterOutcome;
using apim::cluster_harness::ClusterScenario;
using apim::serve::ServerConfig;
using apim::serve_harness::TenantSpec;

struct ClusterRun {
  std::string name;
  ClusterOutcome out;
  double ops_per_kcycle = 0.0;
  double p99 = 0.0;
  double ok_share = 0.0;
};

/// Per-chip server shaped like the migration tests: modest stream count
/// so one chip saturates quickly, short batch window so queueing (not
/// batching) dominates the overloaded tail.
ServerConfig make_server() {
  ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 8;
  cfg.batch_window = 400;
  cfg.queue_capacity = 4096;  // Deep queues: overload shows up as latency.
  return cfg;
}

ClusterRun run(const std::string& name, const ClusterScenario& scenario) {
  ClusterRun r;
  r.name = name;
  r.out = apim::cluster_harness::run_cluster_scenario(scenario);
  r.ops_per_kcycle = apim::cluster_harness::cluster_ops_per_kcycle(r.out.snap);
  r.p99 = apim::cluster_harness::cluster_p99_latency(r.out);
  r.ok_share = apim::cluster_harness::cluster_ok_share(r.out);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = apim::util::configure_threads(argc, argv);
  const bool smoke = apim::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = apim::bench::json_output_path(argc, argv);
  const std::string trace_path = apim::bench::trace_output_path(argc, argv);
  const std::string csv_path =
      apim::bench::csv_output_path(argc, argv, "ext_cluster.csv");
  apim::serve::trace::EventLog trace_log;

  std::printf(
      "Multi-chip sharded cluster: hot-shard migration vs static "
      "placement\n(host threads: %zu%s)\n\n",
      threads, smoke ? ", smoke" : "");

  const ServerConfig server = make_server();
  const std::size_t kChips = 4;
  const std::size_t kShards = 32;
  const std::size_t kTenants = 12;
  const std::uint64_t seed = 2017;

  // Calibrate one chip's saturated op throughput with a representative
  // tenant, then size the Zipf population so the pinned hot chip (owning
  // ~70% of offered load) is oversubscribed while the cluster as a whole
  // has headroom — exactly the regime migration is supposed to rescue.
  TenantSpec probe;
  probe.name = "probe";
  probe.requests = smoke ? 200 : 400;
  probe.rate_per_kcycle = 64.0;  // Saturating during calibration.
  const double capacity =
      apim::serve_harness::measure_capacity_ops_per_kcycle(server, probe, 7);
  std::printf("calibrated single-chip capacity: %.1f ops/kcycle\n", capacity);

  const double mean_ops = (probe.min_ops + probe.max_ops) / 2.0;
  const double total_rate = 2.6 * capacity / mean_ops;
  std::vector<TenantSpec> tenants = apim::cluster_harness::zipf_tenants(
      kTenants, 1.1, total_rate, smoke ? 500 : 1200);

  ClusterScenario base;
  base.seed = seed;
  base.tenants = tenants;
  base.cluster.chips = kChips;
  base.cluster.shards = kShards;
  base.cluster.server = server;
  base.cluster.rebalance.interval = 10000;
  // The naive placement: every popular tenant (the top half of the Zipf
  // curve, ~70% of offered ops) homes on chip 0.
  for (std::size_t k = 0; k < kTenants / 2; ++k)
    base.cluster.placement_overrides
        [Placement::shard_of(tenants[k].name, kShards)] = 0;

  ClusterScenario fixed = base;
  fixed.cluster.rebalance.enabled = false;
  // Attach after the static copy so only the migrate run (forwards,
  // response legs, migrations) lands in the captured log.
  if (!trace_path.empty()) base.cluster.trace = &trace_log;

  const ClusterRun static_run = run("static", fixed);
  const ClusterRun migrate_run = run("migrate", base);
  const std::vector<const ClusterRun*> runs = {&static_run, &migrate_run};

  apim::util::TextTable text(
      {"run", "ops/kcycle", "p99 cyc", "ok share", "chip jain", "migrations",
       "x-shard share", "interconn pJ", "migr cyc"});
  text.set_title("Zipf(1.1) tenants, popular half pinned to chip 0, "
                 "4-chip star");
  apim::util::CsvWriter csv(csv_path);
  csv.write_row({"run", "ops_per_kcycle", "p99_edge_latency_cycles",
                 "ok_share", "chip_jain", "migrations", "evacuations",
                 "cross_shard_traffic_share", "cross_chip_requests",
                 "held_requests", "interconnect_energy_pj",
                 "migration_cycles", "migration_energy_pj"});
  for (const ClusterRun* r : runs) {
    const apim::cluster::ClusterSnapshot& s = r->out.snap;
    text.add_row({r->name, apim::util::format_double(r->ops_per_kcycle, 1),
                  apim::util::format_double(r->p99, 0),
                  apim::util::format_double(r->ok_share, 3),
                  apim::util::format_double(s.chip_jain, 3),
                  std::to_string(s.migrations),
                  apim::util::format_double(s.cross_shard_traffic_share, 4),
                  apim::util::format_double(s.interconnect_energy_pj, 0),
                  std::to_string(s.migration_cycles)});
    csv.write_row({r->name, apim::util::format_double(r->ops_per_kcycle, 2),
                   apim::util::format_double(r->p99, 1),
                   apim::util::format_double(r->ok_share, 4),
                   apim::util::format_double(s.chip_jain, 4),
                   std::to_string(s.migrations),
                   std::to_string(s.evacuations),
                   apim::util::format_double(s.cross_shard_traffic_share, 4),
                   std::to_string(s.cross_chip_requests),
                   std::to_string(s.held_requests),
                   apim::util::format_double(s.interconnect_energy_pj, 1),
                   std::to_string(s.migration_cycles),
                   apim::util::format_double(s.migration_energy_pj, 1)});
  }
  std::printf("\n%s\n", text.render().c_str());

  apim::util::TextTable chips_text(
      {"run", "chip", "submitted", "completed", "batched ops", "span cyc"});
  chips_text.set_title("Per-chip load");
  for (const ClusterRun* r : runs) {
    for (std::size_t c = 0; c < r->out.snap.chips.size(); ++c) {
      const apim::serve::MetricsSnapshot& chip = r->out.snap.chips[c];
      chips_text.add_row({r->name, std::to_string(c),
                          std::to_string(chip.submitted),
                          std::to_string(chip.completed),
                          std::to_string(chip.batched_ops),
                          std::to_string(chip.span_cycles)});
    }
  }
  std::printf("%s\n", chips_text.render().c_str());
  if (csv.ok()) std::printf("Wrote %s\n", csv_path.c_str());

  const double tput_ratio =
      static_run.ops_per_kcycle > 0.0
          ? migrate_run.ops_per_kcycle / static_run.ops_per_kcycle
          : 0.0;
  const double p99_ratio =
      static_run.p99 > 0.0 ? migrate_run.p99 / static_run.p99 : 1e9;

  // -- Shape checks ---------------------------------------------------------
  apim::bench::ShapeChecker checker;
  for (const ClusterRun* r : runs)
    checker.check(
        "request accounting closes (" + r->name + ")",
        apim::cluster_harness::check_cluster_conservation(r->out).empty());
  checker.check("calibration found nonzero capacity", capacity > 0.0);
  checker.check("static placement never migrates",
                static_run.out.snap.migrations == 0);
  checker.check("rebalancer fires at least one migration",
                migrate_run.out.snap.migrations >= 1);
  checker.check("migration beats static on saturated throughput",
                tput_ratio > 1.05);
  checker.check("migration beats static on p99 edge latency",
                p99_ratio < 0.95);
  checker.check("migration evens per-chip load (Jain rises)",
                migrate_run.out.snap.chip_jain >
                    static_run.out.snap.chip_jain);
  checker.check("cross-shard interconnect traffic is nonzero",
                migrate_run.out.snap.cross_shard_traffic_share > 0.0);
  checker.check("interconnect energy is charged, not free",
                migrate_run.out.snap.interconnect_energy_pj > 0.0 &&
                    migrate_run.out.snap.migration_energy_pj > 0.0);
  apim::bench::finish_trace_capture(trace_path, trace_log, checker);
  const int exit_code = checker.finish();

  if (!json_path.empty()) {
    apim::util::JsonValue report = apim::util::JsonValue::object();
    report.set("bench", "ext_cluster");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("chips", static_cast<std::uint64_t>(kChips));
    report.set("shards", static_cast<std::uint64_t>(kShards));
    report.set("capacity_ops_per_kcycle", capacity);
    report.set("migration_vs_static_throughput_ratio", tput_ratio);
    report.set("migration_vs_static_p99_ratio", p99_ratio);

    apim::util::JsonValue run_rows = apim::util::JsonValue::array();
    for (const ClusterRun* r : runs) {
      const apim::cluster::ClusterSnapshot& s = r->out.snap;
      apim::util::JsonValue row = apim::util::JsonValue::object();
      row.set("run", r->name);
      row.set("ops_per_kcycle", r->ops_per_kcycle);
      row.set("p99_edge_latency_cycles", r->p99);
      row.set("ok_share", r->ok_share);
      row.set("chip_jain", s.chip_jain);
      row.set("migrations", s.migrations);
      row.set("evacuations", s.evacuations);
      row.set("cross_shard_traffic_share", s.cross_shard_traffic_share);
      row.set("cross_chip_requests", s.cross_chip_requests);
      row.set("held_requests", s.held_requests);
      row.set("interconnect_cycles",
              static_cast<std::uint64_t>(s.interconnect_cycles));
      row.set("interconnect_energy_pj", s.interconnect_energy_pj);
      row.set("migration_cycles",
              static_cast<std::uint64_t>(s.migration_cycles));
      row.set("migration_energy_pj", s.migration_energy_pj);
      apim::util::JsonValue chips_json = apim::util::JsonValue::array();
      for (const apim::serve::MetricsSnapshot& chip : s.chips) {
        apim::util::JsonValue cj = apim::util::JsonValue::object();
        cj.set("submitted", chip.submitted);
        cj.set("completed", chip.completed);
        cj.set("batched_ops", chip.batched_ops);
        cj.set("span_cycles", static_cast<std::uint64_t>(chip.span_cycles));
        chips_json.append(std::move(cj));
      }
      row.set("chips", std::move(chips_json));
      run_rows.append(std::move(row));
    }
    report.set("runs", std::move(run_rows));
    report.set("shape_checks", checker.to_json());
    report.set("all_checks_passed", checker.all_passed());
    apim::bench::write_json_report(json_path, report);
  }

  return exit_code;
}
