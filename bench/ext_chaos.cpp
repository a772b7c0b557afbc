// Extension bench: chaos A/B for the fault-domain health layer.
//
// Injects the same seeded silicon decay into three runs of one
// multi-tenant serving scenario (tests/serve_chaos_harness.hpp):
//
//   fault-free  — no decay: the throughput/latency baseline;
//   chaos-off   — ambient stuck-at decay (1e-3/cell) plus one whole-domain
//                 kill mid-serve, health layer OFF: the per-request retry
//                 ladder alone, no quarantine or relocation;
//   chaos-on    — identical injections with the health layer ON in kShed
//                 mode: residue escalations quarantine the dead domain,
//                 its in-flight work relocates, background scrubs keep the
//                 survivors clean.
//
// Shape checks assert the headline: with the health layer on, ZERO served
// responses are corrupted (every decayed value is caught by the mod-3
// residue, escalated and relocated to a healthy domain), goodput stays
// >= 90% of fault-free and the p99 holds within the SLO, while the same
// faults with the layer off corrupt served values. Offered load is sized
// from a measured capacity calibration (65% of fault-free capacity, so
// losing one of four streams leaves headroom), making the story robust to
// device-model changes.
//
// Flags: --threads N, --json <path>, --smoke (smaller traces for CI),
// --trace <path> (capture the chaos-on run's event log, verify it in
// process and write apim-trace v1 for apim_trace_lint).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/trace.hpp"
#include "serve_chaos_harness.hpp"
#include "serve_harness.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using apim::serve::RequestStatus;
using apim::serve::ServerConfig;
using apim::serve_harness::ChaosSpec;
using apim::serve_harness::CorruptionReport;
using apim::serve_harness::Outcome;
using apim::serve_harness::Scenario;
using apim::serve_harness::TenantSpec;

struct ChaosRun {
  std::string name;
  Outcome out;
  CorruptionReport rep;
  std::string conservation;  ///< "" when the ledger closes.
};

/// Served ops per kilocycle — the goodput metric the A/B compares.
double ops_per_kcycle(const Outcome& out) {
  if (out.snap.span_cycles == 0) return 0.0;
  return 1000.0 * static_cast<double>(out.snap.batched_ops) /
         static_cast<double>(out.snap.span_cycles);
}

std::uint64_t total_quarantines(const Outcome& out) {
  std::uint64_t n = 0;
  for (const auto& d : out.snap.domains) n += d.quarantines;
  return n;
}

/// Server shaped like the fairness bench (4 streams x 4 lanes) with the
/// health knobs scaled to the trace span at runtime.
ServerConfig make_server() {
  ServerConfig cfg;
  cfg.streams = 4;
  cfg.lanes_per_stream = 4;
  cfg.max_batch_ops = 16;
  cfg.batch_window = 2000;
  cfg.dispatch_cycles = 64;
  cfg.queue_capacity = 8192;
  cfg.escalate_on_miss = false;  // Reliability policy, not QoS, is under test.
  cfg.health.mode = apim::serve::health::DegradeMode::kShed;
  cfg.health.suspect_detections = 4;
  // Quarantine on escalation (an exhausted retry ladder), not on detection
  // volume: ambient decay detections are business as usual for the ladder.
  cfg.health.quarantine_detections = 1u << 30;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = apim::util::configure_threads(argc, argv);
  const bool smoke = apim::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = apim::bench::json_output_path(argc, argv);
  const std::string trace_path = apim::bench::trace_output_path(argc, argv);
  const std::string csv_path =
      apim::bench::csv_output_path(argc, argv, "ext_chaos.csv");
  apim::serve::trace::EventLog trace_log;

  std::printf("Chaos A/B: seeded decay + mid-serve domain kill, health "
              "layer on vs off\n");
  std::printf("(host threads: %zu%s)\n\n", threads, smoke ? ", smoke" : "");

  const ServerConfig server = make_server();

  // Two exact-mode tenants paying for detect-and-repair: the residue
  // check plus retry ladder is what the health layer's counters observe.
  TenantSpec vision;
  vision.name = "vision";
  vision.weight = 3;
  vision.width = 12;
  vision.min_ops = 2;
  vision.max_ops = 12;
  vision.requests = smoke ? 180 : 600;
  vision.rate_per_kcycle = 64.0;  // Saturating during calibration.
  vision.policy = apim::reliability::ReliabilityPolicy::kDetectAndRepair;

  TenantSpec sensor = vision;
  sensor.name = "sensor";
  sensor.weight = 1;
  sensor.requests = smoke ? 60 : 200;

  const std::uint64_t seed = 20170604;
  const double capacity =
      apim::serve_harness::measure_capacity_ops_per_kcycle(server, vision, 7);
  std::printf("calibrated capacity: %.1f ops/kcycle (4 streams)\n", capacity);

  // Offer 65% of fault-free capacity (75/25 vision/sensor): losing one of
  // four streams still leaves 75% of capacity serving 65% of load.
  const double mean_ops = (vision.min_ops + vision.max_ops) / 2.0;
  const double offered = 0.65 * capacity / mean_ops;
  vision.rate_per_kcycle = 0.75 * offered;
  sensor.rate_per_kcycle = 0.25 * offered;

  // Arrival span of the longer tenant, from the rates just derived; the
  // kill lands at 40% of it so plenty of traffic is still in flight, and
  // the scrub/repair cadence fits several passes into the run.
  const double span_est =
      std::max(1000.0 * vision.requests / vision.rate_per_kcycle,
               1000.0 * sensor.requests / sensor.rate_per_kcycle);
  ChaosSpec spec;
  spec.scenario.seed = seed;
  spec.scenario.server = server;
  spec.scenario.server.health.scrub_interval =
      static_cast<apim::util::Cycles>(span_est / 15.0);
  spec.scenario.server.health.repair_interval =
      static_cast<apim::util::Cycles>(span_est / 20.0);
  spec.scenario.tenants = {vision, sensor};
  spec.stuck_rate = 1e-3;
  spec.cells_per_unit = 256;
  spec.transient_rate = 1e-4;
  spec.fault_seed = 0xFA177;
  spec.kill_domain = 1;

  auto make_run = [](std::string name, Outcome out) {
    ChaosRun run;
    run.name = std::move(name);
    run.rep = apim::serve_harness::count_corruption(out);
    run.conservation = apim::serve_harness::check_chaos_conservation(out);
    run.out = std::move(out);
    return run;
  };

  // The relocation story needs the kill to land while the victim domain
  // is mid-batch (an idle domain quarantines with nothing in flight, a
  // weaker headline). Probe a fixed ladder of mid-serve instants and keep
  // the first that catches it busy — deterministic, and robust to device
  // -model changes shifting the dispatch timeline.
  // The chaos-on run is the event stream --trace captures (quarantines,
  // aborts, relocations, scrubs). The log restarts with each probe so the
  // kept capture covers exactly the kept run; the baseline/off runs below
  // detach the pointer before they copy the spec.
  if (!trace_path.empty()) spec.scenario.server.trace = &trace_log;
  ChaosRun on_run;
  for (const double frac : {0.40, 0.45, 0.50, 0.55, 0.60, 0.35, 0.30}) {
    spec.kill_at = static_cast<apim::util::Cycles>(frac * span_est);
    trace_log.clear();
    on_run = make_run("chaos-on", apim::serve_harness::run_chaos(spec, true));
    if (on_run.out.snap.relocated_requests > 0) break;
  }
  spec.scenario.server.trace = nullptr;
  std::printf("offered load: %.0f%% of capacity; kill domain %zu at cycle "
              "%llu\n\n",
              100.0 * offered * mean_ops / capacity, spec.kill_domain,
              static_cast<unsigned long long>(spec.kill_at));

  // Fault-free baseline: the same scenario with nothing injected.
  ChaosSpec clean = spec;
  clean.stuck_rate = 0.0;
  clean.transient_rate = 0.0;
  clean.kill_at = 0;

  const ChaosRun clean_run =
      make_run("fault-free", apim::serve_harness::run_chaos(clean, false));
  const ChaosRun off_run =
      make_run("chaos-off", apim::serve_harness::run_chaos(spec, false));
  const std::vector<const ChaosRun*> run_ptrs = {&clean_run, &off_run,
                                                 &on_run};

  // -- Report ---------------------------------------------------------------
  apim::util::TextTable text({"run", "ok", "corrupt", "silent", "reject",
                              "reloc", "quar", "scrubs", "ops/kcyc", "p99"});
  text.set_title("Same seeded decay, health layer off vs on (kShed)");
  apim::util::CsvWriter csv(csv_path);
  csv.write_row({"run", "ok", "corrupted", "silent", "rejected", "expired",
                 "relocated_requests", "quarantines", "readmissions",
                 "scrub_passes", "scrub_repaired_bits", "min_serving_domains",
                 "ops_per_kcycle", "p99_latency_cycles", "energy_pj"});
  for (const ChaosRun* rp : run_ptrs) {
    const ChaosRun& run = *rp;
    const auto& snap = run.out.snap;
    std::uint64_t readmissions = 0;
    for (const auto& d : snap.domains) readmissions += d.readmissions;
    text.add_row({run.name, std::to_string(run.rep.ok),
                  std::to_string(run.rep.corrupted),
                  std::to_string(run.rep.silent),
                  std::to_string(snap.rejected),
                  std::to_string(snap.relocated_requests),
                  std::to_string(total_quarantines(run.out)),
                  std::to_string(snap.scrub_passes),
                  apim::util::format_double(ops_per_kcycle(run.out), 1),
                  apim::util::format_double(snap.p99_latency_cycles, 0)});
    csv.write_row({run.name, std::to_string(run.rep.ok),
                   std::to_string(run.rep.corrupted),
                   std::to_string(run.rep.silent),
                   std::to_string(snap.rejected),
                   std::to_string(snap.expired),
                   std::to_string(snap.relocated_requests),
                   std::to_string(total_quarantines(run.out)),
                   std::to_string(readmissions),
                   std::to_string(snap.scrub_passes),
                   std::to_string(snap.scrub_repaired_bits),
                   std::to_string(snap.min_serving_domains),
                   apim::util::format_double(ops_per_kcycle(run.out), 2),
                   apim::util::format_double(snap.p99_latency_cycles, 1),
                   apim::util::format_double(snap.energy_pj, 1)});
  }
  std::printf("%s\n", text.render().c_str());
  if (csv.ok()) std::printf("Wrote %s\n", csv_path.c_str());

  const double clean_goodput = ops_per_kcycle(clean_run.out);
  const double on_goodput = ops_per_kcycle(on_run.out);
  const double throughput_ratio =
      clean_goodput > 0.0 ? on_goodput / clean_goodput : 0.0;
  const double slo_p99 = 3.0 * clean_run.out.snap.p99_latency_cycles;

  // -- Shape checks ---------------------------------------------------------
  apim::bench::ShapeChecker checker;
  for (const ChaosRun* run : run_ptrs)
    checker.check("request + relocation ledger closes (" + run->name + ")",
                  run->conservation.empty());
  checker.check("calibration found nonzero capacity", capacity > 0.0);
  checker.check("fault-free baseline is exact",
                clean_run.rep.corrupted == 0);
  checker.check("health on: zero corrupted responses served",
                on_run.rep.corrupted == 0);
  checker.check("health on: zero silent corruptions",
                on_run.rep.silent == 0);
  checker.check("health on: the killed domain was quarantined",
                total_quarantines(on_run.out) >= 1 &&
                    on_run.out.snap.min_serving_domains <= 3);
  checker.check("health on: in-flight work relocated off the dead domain",
                on_run.out.snap.relocated_requests > 0);
  checker.check("health on: background scrub passes ran",
                on_run.out.snap.scrub_passes > 0);
  checker.check_range("health on: goodput >= 90% of fault-free",
                      throughput_ratio, 0.90, 10.0);
  checker.check("health on: p99 within SLO (3x fault-free p99)",
                on_run.out.snap.p99_latency_cycles <= slo_p99);
  checker.check("health off: the same faults corrupt served values",
                off_run.rep.corrupted > 0);
  checker.check("health off: no quarantine, no relocation, no scrub",
                total_quarantines(off_run.out) == 0 &&
                    off_run.out.snap.relocated_requests == 0 &&
                    off_run.out.snap.scrub_passes == 0);
  apim::bench::finish_trace_capture(trace_path, trace_log, checker);
  const int exit_code = checker.finish();

  if (!json_path.empty()) {
    apim::util::JsonValue report = apim::util::JsonValue::object();
    report.set("bench", "ext_chaos");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("capacity_ops_per_kcycle", capacity);
    report.set("offered_fraction", offered * mean_ops / capacity);
    report.set("kill_at_cycles", static_cast<std::uint64_t>(spec.kill_at));
    report.set("stuck_rate", spec.stuck_rate);
    report.set("throughput_ratio", throughput_ratio);
    report.set("slo_p99_cycles", slo_p99);
    report.set("health_on_corrupted", on_run.rep.corrupted);
    report.set("health_on_silent", on_run.rep.silent);
    report.set("health_off_corrupted", off_run.rep.corrupted);

    apim::util::JsonValue run_rows = apim::util::JsonValue::array();
    for (const ChaosRun* rp : run_ptrs) {
      const ChaosRun& run = *rp;
      const auto& snap = run.out.snap;
      apim::util::JsonValue row = apim::util::JsonValue::object();
      row.set("run", run.name);
      row.set("ok", run.rep.ok);
      row.set("corrupted", run.rep.corrupted);
      row.set("silent", run.rep.silent);
      row.set("rejected", snap.rejected);
      row.set("expired", snap.expired);
      row.set("relocated_requests", snap.relocated_requests);
      row.set("relocated_ops", snap.relocated_ops);
      row.set("quarantines", total_quarantines(run.out));
      row.set("scrub_passes", snap.scrub_passes);
      row.set("scrub_repaired_bits", snap.scrub_repaired_bits);
      row.set("min_serving_domains",
              static_cast<std::uint64_t>(snap.min_serving_domains));
      row.set("ops_per_kcycle", ops_per_kcycle(run.out));
      row.set("p99_latency_cycles", snap.p99_latency_cycles);
      row.set("energy_pj", snap.energy_pj);
      run_rows.append(std::move(row));
    }
    report.set("runs", std::move(run_rows));
    apim::bench::write_json_report(json_path, report);
  }
  return exit_code;
}
