// Extension bench: fair-share tenant scheduling under contention.
//
// Reproduces the multi-tenant fairness experiment behind the serving
// runtime's deficit round-robin scheduler (src/serve/scheduler.hpp). A
// light tenant (weight 1) offers a little more than its 25% share while
// an aggressive tenant (weight 3) offers 3x the server's entire
// capacity. Three runs on the same virtual-time server:
//
//   light-solo  — the light tenant alone: its baseline tail latency;
//   mixed-fifo  — both tenants, legacy global FIFO dispatch: the heavy
//                 backlog pushes light batches past their deadlines;
//   mixed-drr   — both tenants under DRR + weighted stream allocation.
//
// Shape checks assert the headline: under DRR the light tenant keeps its
// served-ops share within 10% of its weight share and its p99 within 2x
// solo, while under FIFO the aggressive tenant starves it (share
// collapses, expiries soar, Jain index drops). Offered loads are sized
// from a measured capacity calibration run, so the story is robust to
// device-model changes.
//
// Flags: --threads N, --json <path>, --smoke (smaller traces for CI).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve_harness.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using apim::serve::MetricsSnapshot;
using apim::serve::RequestStatus;
using apim::serve::ServerConfig;
using apim::serve_harness::Outcome;
using apim::serve_harness::Scenario;
using apim::serve_harness::TenantSpec;

struct FairnessRun {
  std::string name;
  Outcome out;
};

/// Server shaped so batch execution scales with live ops (op budget spans
/// several lane rounds) and the batching window dominates the solo tail —
/// see tests/serve_fairness_test.cpp for why both matter to the checks.
ServerConfig make_server() {
  ServerConfig cfg;
  cfg.streams = 4;
  cfg.lanes_per_stream = 4;
  cfg.max_batch_ops = 16;
  cfg.batch_window = 2500;
  cfg.dispatch_cycles = 64;
  cfg.queue_capacity = 8192;  // Shed by deadline, not admission control.
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = apim::util::configure_threads(argc, argv);
  const bool smoke = apim::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = apim::bench::json_output_path(argc, argv);
  const std::string csv_path =
      apim::bench::csv_output_path(argc, argv, "ext_fairness.csv");

  std::printf("Fair-share tenant scheduling: DRR vs FIFO under contention\n");
  std::printf("(host threads: %zu%s)\n\n", threads, smoke ? ", smoke" : "");

  const ServerConfig server = make_server();

  TenantSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 3;
  heavy.width = 12;
  heavy.min_ops = 2;
  heavy.max_ops = 12;
  heavy.requests = smoke ? 200 : 400;
  heavy.rate_per_kcycle = 64.0;  // Saturating during calibration.

  TenantSpec light = heavy;
  light.name = "light";
  light.weight = 1;
  light.requests = smoke ? 80 : 150;

  const std::uint64_t seed = 2017;
  const double capacity =
      apim::serve_harness::measure_capacity_ops_per_kcycle(server, heavy, 7);
  std::printf("calibrated capacity: %.1f ops/kcycle (4 streams)\n", capacity);

  // Heavy saturates 3x over; light asks 12% above its 25% weight share so
  // the scheduler, not the arrival process, decides what it receives.
  const double mean_ops = (heavy.min_ops + heavy.max_ops) / 2.0;
  heavy.rate_per_kcycle = 3.0 * capacity / mean_ops;
  light.rate_per_kcycle = 1.12 * 0.25 * capacity / mean_ops;
  const double weight_share =
      static_cast<double>(light.weight) / (light.weight + heavy.weight);

  // Light-solo baseline.
  Scenario solo;
  solo.seed = seed;
  solo.server = server;
  solo.tenants = {light};
  FairnessRun solo_run{"light-solo", apim::serve_harness::run_scenario(solo)};
  const double p99_solo =
      apim::serve_harness::app_p99_latency(solo_run.out, "light");

  // Mixed contention: light sheds its modest excess via a deadline just
  // past its solo tail; heavy queues without bound.
  Scenario mixed;
  mixed.seed = seed;
  mixed.server = server;
  mixed.tenants = {light, heavy};
  mixed.tenants[0].deadline = static_cast<apim::util::Cycles>(1.5 * p99_solo);

  Scenario fifo = mixed;
  fifo.server.fair_share = false;
  FairnessRun fifo_run{"mixed-fifo", apim::serve_harness::run_scenario(fifo)};
  FairnessRun drr_run{"mixed-drr", apim::serve_harness::run_scenario(mixed)};

  const std::vector<const FairnessRun*> runs = {&solo_run, &fifo_run,
                                                &drr_run};

  apim::util::TextTable text({"run", "tenant", "w", "ok", "expired",
                              "ops served", "share", "p99 cyc",
                              "starve cyc", "jain"});
  text.set_title("Weights 3:1, heavy offered 3x capacity, light 1.12x its "
                 "share");
  apim::util::CsvWriter csv(csv_path);
  csv.write_row({"run", "tenant", "weight", "completed", "expired",
                 "ops_served", "served_ops_share", "p99_latency_cycles",
                 "max_starvation_cycles", "max_deficit_carried",
                 "jain_fairness"});
  for (const FairnessRun* run : runs) {
    for (const auto& [app, counts] : run->out.snap.per_app) {
      const double share =
          apim::serve_harness::served_ops_share(run->out.snap, app);
      const double p99 =
          apim::serve_harness::app_p99_latency(run->out, app);
      text.add_row({run->name, app, std::to_string(counts.weight),
                    std::to_string(counts.completed),
                    std::to_string(apim::serve_harness::app_status_count(
                        run->out, app, RequestStatus::kExpired)),
                    std::to_string(counts.ops_served),
                    apim::util::format_double(share, 3),
                    apim::util::format_double(p99, 0),
                    std::to_string(counts.max_starvation_cycles),
                    apim::util::format_double(run->out.snap.jain_fairness,
                                              3)});
      csv.write_row({run->name, app, std::to_string(counts.weight),
                     std::to_string(counts.completed),
                     std::to_string(apim::serve_harness::app_status_count(
                         run->out, app, RequestStatus::kExpired)),
                     std::to_string(counts.ops_served),
                     apim::util::format_double(share, 4),
                     apim::util::format_double(p99, 1),
                     std::to_string(counts.max_starvation_cycles),
                     std::to_string(counts.max_deficit_carried),
                     apim::util::format_double(run->out.snap.jain_fairness,
                                               4)});
    }
  }
  std::printf("\n%s\n", text.render().c_str());
  if (csv.ok()) std::printf("Wrote %s\n", csv_path.c_str());

  const double drr_share =
      apim::serve_harness::served_ops_share(drr_run.out.snap, "light");
  const double fifo_share =
      apim::serve_harness::served_ops_share(fifo_run.out.snap, "light");
  const double drr_p99 =
      apim::serve_harness::app_p99_latency(drr_run.out, "light");
  const std::uint64_t drr_expired = apim::serve_harness::app_status_count(
      drr_run.out, "light", RequestStatus::kExpired);
  const std::uint64_t fifo_expired = apim::serve_harness::app_status_count(
      fifo_run.out, "light", RequestStatus::kExpired);

  // -- Shape checks ---------------------------------------------------------
  apim::bench::ShapeChecker checker;
  for (const FairnessRun* run : runs)
    checker.check("request accounting closes (" + run->name + ")",
                  apim::serve_harness::check_conservation(run->out).empty());
  checker.check("calibration found nonzero capacity", capacity > 0.0);
  checker.check_range("DRR: light served-ops share within 10% of its "
                      "weight share",
                      drr_share, 0.9 * weight_share, 1.1 * weight_share);
  checker.check_range("DRR: light p99 within 2x its solo p99",
                      p99_solo > 0.0 ? drr_p99 / p99_solo : 1e9, 0.0, 2.0);
  checker.check("DRR: Jain index >= 0.95 under contention",
                drr_run.out.snap.jain_fairness >= 0.95);
  checker.check("FIFO lets the aggressive tenant starve light "
                "(share collapses below 80% of its weight share)",
                fifo_share < 0.8 * weight_share);
  checker.check("DRR expires fewer light requests than FIFO",
                drr_expired < fifo_expired);
  checker.check("DRR beats FIFO on the Jain fairness index",
                drr_run.out.snap.jain_fairness >
                    fifo_run.out.snap.jain_fairness);
  checker.check(
      "DRR bounds light starvation by its deadline",
      drr_run.out.snap.per_app.at("light").max_starvation_cycles <=
          mixed.tenants[0].deadline);
  const int exit_code = checker.finish();

  if (!json_path.empty()) {
    apim::util::JsonValue report = apim::util::JsonValue::object();
    report.set("bench", "ext_fairness");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("capacity_ops_per_kcycle", capacity);
    report.set("light_weight_share", weight_share);
    report.set("light_p99_solo_cycles", p99_solo);

    apim::util::JsonValue run_rows = apim::util::JsonValue::array();
    for (const FairnessRun* run : runs) {
      for (const auto& [app, counts] : run->out.snap.per_app) {
        apim::util::JsonValue row = apim::util::JsonValue::object();
        row.set("run", run->name);
        row.set("tenant", app);
        row.set("weight", static_cast<std::uint64_t>(counts.weight));
        row.set("completed", counts.completed);
        row.set("expired", apim::serve_harness::app_status_count(
                               run->out, app, RequestStatus::kExpired));
        row.set("dispatches", counts.dispatches);
        row.set("ops_served", counts.ops_served);
        row.set("served_ops_share",
                apim::serve_harness::served_ops_share(run->out.snap, app));
        row.set("p99_latency_cycles",
                apim::serve_harness::app_p99_latency(run->out, app));
        row.set("max_starvation_cycles",
                static_cast<std::uint64_t>(counts.max_starvation_cycles));
        row.set("max_deficit_carried", counts.max_deficit_carried);
        row.set("jain_fairness", run->out.snap.jain_fairness);
        run_rows.append(std::move(row));
      }
    }
    report.set("runs", std::move(run_rows));
    report.set("shape_checks", checker.to_json());
    report.set("all_checks_passed", checker.all_passed());
    apim::bench::write_json_report(json_path, report);
  }

  return exit_code;
}
