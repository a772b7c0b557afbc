// Extension bench: serving-runtime throughput-latency curves.
//
// Drives the serving runtime (src/serve/) with a seeded open-loop Poisson
// arrival process at a sweep of offered loads, once with dynamic batching
// enabled and once with every request dispatched alone (batch window 0).
// Reports simulated throughput, latency percentiles, batch sizes and
// occupancy per point, as a table + CSV (+ optional --json report).
//
// Shape checks assert the qualitative story that makes the batcher worth
// having: at saturation, coalescing same-shaped requests amortizes the
// per-dispatch controller setup and fills the stream's lanes, lifting
// request throughput by >= 4x at equal lane count, while at moderate load
// the p99 latency (including the batching window) stays inside the SLO.
//
// A second section A/B-tests the simulation tier itself: the same
// saturation trace through Backend::kFast and Backend::kBitsliced. Both
// now run the same word kernels for every op kind, so every simulated
// number is bit-identical between the two — the section asserts that —
// and the host wall-clock ratio, reported as
// bitsliced_vs_word_host_speedup, is run-to-run noise around 1. Full mode
// requires >= 0.3x: the lowest observed full-mode ratio (0.562) divided by
// 1.5, rounded down to a multiple of 0.1. The ratio's spread is wide
// (0.56-1.49 over 120 runs, median 0.98), so the floor fails only at
// about a 1.9x slowdown of one run from the slowest observed run, or
// about 3.3x from the median. The A/B retires with kBitsliced.
//
// Flags: --threads N, --json <path>, --smoke (tiny trace for CI),
// --trace <path> (capture the batched saturation point's event log,
// verify it in process and write apim-trace v1 for apim_trace_lint).
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "serve_harness.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using apim::serve::LoadGenConfig;
using apim::serve::MetricsSnapshot;
using apim::serve::Request;
using apim::serve::Response;
using apim::serve::Server;
using apim::serve::ServerConfig;

struct SweepPoint {
  double rate_per_kcycle = 0.0;
  bool batched = false;
  MetricsSnapshot snap;
};

constexpr double kSloP99Cycles = 40000.0;

ServerConfig make_server_config(bool batched) {
  ServerConfig cfg;
  cfg.streams = 4;
  cfg.lanes_per_stream = 64;
  cfg.queue_capacity = 4096;
  cfg.batch_window = batched ? 2000 : 0;
  cfg.dispatch_cycles = 64;
  cfg.slo_p99_cycles = kSloP99Cycles;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = apim::bench::configure_threads(argc, argv);
  const bool smoke = apim::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = apim::bench::json_output_path(argc, argv);
  const std::string trace_path = apim::bench::trace_output_path(argc, argv);
  apim::serve::trace::EventLog trace_log;

  std::printf("Serving runtime: open-loop throughput-latency sweep\n");
  std::printf("(host threads: %zu%s)\n\n", threads, smoke ? ", smoke" : "");

  const std::vector<std::string> apps = {"Sobel", "FFT"};
  const std::size_t tune_elements = smoke ? 256 : 1024;
  const apim::serve::QosTable table =
      apim::serve::build_qos_table(apps, tune_elements, 2017);
  for (const auto& [app, entry] : table.entries())
    std::printf("QoS table: %-10s relax=%2u bits  expected loss %.3g\n",
                app.c_str(), entry.relax_bits, entry.expected_loss);

  const std::vector<double> rates =
      smoke ? std::vector<double>{4.0, 96.0}
            : std::vector<double>{2.0, 8.0, 32.0, 96.0};
  const std::size_t requests = smoke ? 300 : 2000;

  std::vector<SweepPoint> points;
  for (const bool batched : {false, true}) {
    for (const double rate : rates) {
      LoadGenConfig gen;
      gen.requests = requests;
      gen.rate_per_kcycle = rate;
      gen.seed = 2017;
      gen.apps = apps;
      gen.min_ops = 8;
      gen.max_ops = 8;
      gen.width = 32;

      ServerConfig cfg = make_server_config(batched);
      // The batched saturation point is the richest event stream (credit
      // contention, coalescing, deep queues) — that is the run captured
      // for --trace. Tracing is observational, so attaching the log here
      // does not perturb the sweep.
      if (!trace_path.empty() && batched && rate == rates.back())
        cfg.trace = &trace_log;
      Server server(cfg, table);
      (void)server.run_trace(apim::serve::make_open_loop_trace(gen));
      points.push_back(SweepPoint{rate, batched, server.snapshot()});
    }
  }

  apim::util::TextTable text({"mode", "rate/kcyc", "thruput rps", "p50 cyc",
                              "p99 cyc", "mean batch", "stream occ",
                              "done", "rej", "exp"});
  text.set_title("Open loop, 8-op mul requests, 4 streams x 64 lanes");
  const std::string csv_path =
      apim::bench::csv_output_path(argc, argv, "ext_serving.csv");
  apim::util::CsvWriter csv(csv_path);
  csv.write_row({"mode", "rate_per_kcycle", "throughput_rps",
                 "p50_latency_cycles", "p95_latency_cycles",
                 "p99_latency_cycles", "mean_batch_requests",
                 "lane_occupancy", "stream_occupancy", "completed",
                 "rejected", "expired", "escalations", "energy_pj"});
  for (const SweepPoint& p : points) {
    const MetricsSnapshot& s = p.snap;
    const char* mode = p.batched ? "batched" : "unbatched";
    text.add_row({mode, apim::util::format_double(p.rate_per_kcycle, 1),
                  apim::util::format_sci(s.throughput_rps, 3),
                  apim::util::format_double(s.p50_latency_cycles, 0),
                  apim::util::format_double(s.p99_latency_cycles, 0),
                  apim::util::format_double(s.mean_batch_requests, 2),
                  apim::util::format_percent(s.stream_occupancy, 1),
                  std::to_string(s.completed), std::to_string(s.rejected),
                  std::to_string(s.expired)});
    csv.write_row({mode, apim::util::format_double(p.rate_per_kcycle, 2),
                   apim::util::format_sci(s.throughput_rps, 6),
                   apim::util::format_double(s.p50_latency_cycles, 1),
                   apim::util::format_double(s.p95_latency_cycles, 1),
                   apim::util::format_double(s.p99_latency_cycles, 1),
                   apim::util::format_double(s.mean_batch_requests, 3),
                   apim::util::format_double(s.lane_occupancy, 4),
                   apim::util::format_double(s.stream_occupancy, 4),
                   std::to_string(s.completed), std::to_string(s.rejected),
                   std::to_string(s.expired), std::to_string(s.escalations),
                   apim::util::format_sci(s.energy_pj, 4)});
  }
  std::printf("\n%s\n", text.render().c_str());
  if (csv.ok()) std::printf("Wrote %s\n", csv_path.c_str());

  // -- Backend A/B: host cost of the simulation tier ------------------------
  //
  // Same saturation trace, same server shape, kFast vs kBitsliced, which
  // run the same kernels. The simulated outcome must be bit-identical (the
  // equivalence gate's property, re-checked here end to end); the host
  // wall-clock is not. Heavier requests than the sweep (16 ops each) so
  // the arithmetic kernels dominate host time rather than the scheduler
  // bookkeeping, and a mul/add mix so the A/B equality check covers both
  // device batch entry points.
  LoadGenConfig ab_gen;
  ab_gen.requests = requests;
  ab_gen.rate_per_kcycle = rates.back();
  ab_gen.seed = 2017;
  ab_gen.apps = apps;
  ab_gen.min_ops = 16;
  ab_gen.max_ops = 16;
  ab_gen.width = 32;
  ab_gen.add_fraction = 0.5;
  const std::vector<Request> ab_trace =
      apim::serve::make_open_loop_trace(ab_gen);
  const int ab_repeats = smoke ? 1 : 3;

  struct AbResult {
    apim::serve_harness::Outcome outcome;
    double best_seconds = 0.0;
    double host_rps = 0.0;
  };
  const auto run_backend = [&](apim::core::Backend backend) {
    AbResult r;
    ServerConfig cfg = make_server_config(/*batched=*/true);
    cfg.device.backend = backend;
    for (int rep = 0; rep < ab_repeats; ++rep) {
      Server server(cfg, table);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<Response> responses = server.run_trace(ab_trace);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || secs < r.best_seconds) r.best_seconds = secs;
      if (rep == 0) {
        r.outcome.responses = std::move(responses);
        r.outcome.snap = server.snapshot();
      }
    }
    r.host_rps =
        static_cast<double>(ab_trace.size()) / r.best_seconds;
    return r;
  };
  const AbResult word_run = run_backend(apim::core::Backend::kFast);
  const AbResult sliced_run = run_backend(apim::core::Backend::kBitsliced);
  const double host_speedup =
      word_run.host_rps > 0.0 ? sliced_run.host_rps / word_run.host_rps : 0.0;
  const std::string backend_diff = apim::serve_harness::diff_outcomes(
      word_run.outcome, sliced_run.outcome);

  std::printf("Backend A/B at %.0f req/kcycle (%zu requests, best of %d):\n",
              ab_gen.rate_per_kcycle, ab_trace.size(), ab_repeats);
  std::printf("  kFast      %8.3f s  (%.3g req/s host)\n",
              word_run.best_seconds, word_run.host_rps);
  std::printf("  kBitsliced %8.3f s  (%.3g req/s host)\n",
              sliced_run.best_seconds, sliced_run.host_rps);
  std::printf("  host speedup %.2fx, outcomes %s\n\n", host_speedup,
              backend_diff.empty() ? "bit-identical" : backend_diff.c_str());

  // -- Shape checks ---------------------------------------------------------
  apim::bench::ShapeChecker checker;

  checker.check("bitsliced backend outcome bit-identical to word backend",
                backend_diff.empty());
  if (!smoke) {
    // Wall-clock ratios are meaningless on a 300-request smoke trace (the
    // run is over before the pool warms up), so the floor is full-mode only.
    // It is the lowest ratio of 120 full-mode runs (0.562) divided by 1.5
    // (0.375), rounded down to 0.3.
    checker.check_range("bitsliced backend host throughput >= 0.3x word",
                        host_speedup, 0.3, 1e9);
  }

  double best_batched = 0.0, best_unbatched = 0.0;
  for (const SweepPoint& p : points) {
    double& best = p.batched ? best_batched : best_unbatched;
    if (p.snap.throughput_rps > best) best = p.snap.throughput_rps;
  }
  const double speedup =
      best_unbatched > 0.0 ? best_batched / best_unbatched : 0.0;
  checker.check_range("batched saturation throughput >= 4x unbatched",
                      speedup, 4.0, 1e9);

  // Moderate load: the lowest swept rate with batching on.
  const SweepPoint* moderate = nullptr;
  for (const SweepPoint& p : points)
    if (p.batched && (!moderate || p.rate_per_kcycle < moderate->rate_per_kcycle))
      moderate = &p;
  checker.check("p99 within SLO at moderate load (batched)",
                moderate != nullptr && moderate->snap.slo_met(kSloP99Cycles));
  checker.check("batching actually coalesces at saturation",
                [&] {
                  for (const SweepPoint& p : points)
                    if (p.batched && p.rate_per_kcycle >= 90.0 &&
                        p.snap.mean_batch_requests >= 4.0)
                      return true;
                  return false;
                }());
  for (const SweepPoint& p : points) {
    const MetricsSnapshot& s = p.snap;
    checker.check(
        std::string("request accounting closes (") +
            (p.batched ? "batched" : "unbatched") + " @ " +
            apim::util::format_double(p.rate_per_kcycle, 1) + "/kcyc)",
        s.completed + s.rejected + s.expired + s.invalid == s.submitted &&
            s.p50_latency_cycles <= s.p99_latency_cycles);
  }

  apim::bench::finish_trace_capture(trace_path, trace_log, checker);

  const int exit_code = checker.finish();

  if (!json_path.empty()) {
    apim::util::JsonValue report = apim::util::JsonValue::object();
    report.set("bench", "ext_serving");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("slo_p99_cycles", kSloP99Cycles);
    report.set("batched_vs_unbatched_speedup", speedup);
    report.set("bitsliced_vs_word_host_speedup", host_speedup);

    apim::util::JsonValue backend_ab = apim::util::JsonValue::object();
    backend_ab.set("rate_per_kcycle", ab_gen.rate_per_kcycle);
    backend_ab.set("requests", static_cast<std::uint64_t>(ab_trace.size()));
    backend_ab.set("repeats", static_cast<std::uint64_t>(ab_repeats));
    backend_ab.set("word_host_seconds", word_run.best_seconds);
    backend_ab.set("bitsliced_host_seconds", sliced_run.best_seconds);
    backend_ab.set("word_host_rps", word_run.host_rps);
    backend_ab.set("bitsliced_host_rps", sliced_run.host_rps);
    backend_ab.set("outcomes_bit_identical", backend_diff.empty());
    report.set("backend_ab", std::move(backend_ab));

    apim::util::JsonValue qos_table = apim::util::JsonValue::array();
    for (const auto& [app, entry] : table.entries()) {
      apim::util::JsonValue row = apim::util::JsonValue::object();
      row.set("app", app);
      row.set("relax_bits", static_cast<std::uint64_t>(entry.relax_bits));
      row.set("expected_loss", entry.expected_loss);
      qos_table.append(std::move(row));
    }
    report.set("qos_table", std::move(qos_table));

    apim::util::JsonValue sweep = apim::util::JsonValue::array();
    for (const SweepPoint& p : points) {
      const MetricsSnapshot& s = p.snap;
      apim::util::JsonValue row = apim::util::JsonValue::object();
      row.set("mode", p.batched ? "batched" : "unbatched");
      row.set("rate_per_kcycle", p.rate_per_kcycle);
      row.set("throughput_rps", s.throughput_rps);
      row.set("p50_latency_cycles", s.p50_latency_cycles);
      row.set("p95_latency_cycles", s.p95_latency_cycles);
      row.set("p99_latency_cycles", s.p99_latency_cycles);
      row.set("mean_latency_cycles", s.mean_latency_cycles);
      row.set("mean_batch_requests", s.mean_batch_requests);
      row.set("max_batch_requests",
              static_cast<std::uint64_t>(s.max_batch_requests));
      row.set("lane_occupancy", s.lane_occupancy);
      row.set("stream_occupancy", s.stream_occupancy);
      row.set("completed", s.completed);
      row.set("rejected", s.rejected);
      row.set("expired", s.expired);
      row.set("invalid", s.invalid);
      row.set("escalations", s.escalations);
      row.set("energy_pj", s.energy_pj);
      row.set("slo_met", s.slo_met(kSloP99Cycles));
      sweep.append(std::move(row));
    }
    report.set("sweep", std::move(sweep));
    report.set("shape_checks", checker.to_json());
    report.set("all_checks_passed", checker.all_passed());
    apim::bench::write_json_report(json_path, report);
  }

  return exit_code;
}
