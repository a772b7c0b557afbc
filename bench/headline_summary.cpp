// Headline-claims check: the abstract's four numbers.
//
//  * exact mode at 1 GB: 28x energy savings, 4.8x speedup vs GPU;
//  * approximate mode: up to 20x performance improvement and up to 480x
//    EDP improvement vs GPU, under acceptable quality of service.
// This bench aggregates the same machinery as the Figure 5 and Table 1
// benches into the four headline numbers and band-checks them.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
using namespace apim;
constexpr double kOneGiB = 1024.0 * 1024 * 1024;
}  // namespace

int main(int argc, char** argv) {
  util::configure_threads(argc, argv);
  const std::string json_path = bench::json_output_path(argc, argv);
  std::puts("=== Headline claims summary ===\n");
  const baseline::GpuModel gpu;
  const core::ApimConfig apim_cfg;

  util::RunningStats exact_energy, exact_speedup;
  util::RunningStats approx_speedup, approx_edp;
  util::TextTable table({"app", "exact energy gain@1GB", "exact speedup@1GB",
                         "tuned m", "approx speedup@1GB",
                         "approx EDP gain@1GB"});
  util::JsonValue per_app = util::JsonValue::array();

  for (const auto& ref : bench::kTable1Paper) {
    auto app = apps::make_application(ref.app);
    app->generate(bench::kSampleElements, bench::kSampleSeed);
    const bench::AppSample exact = bench::sample_app(*app, 0);

    baseline::GpuAppProfile profile = app->gpu_profile();
    profile.traffic_bytes_per_element =
        baseline::calibrate_traffic_for_edp_ratio(
            gpu, profile.ops_per_element,
            exact.edp_per_element_js(apim_cfg.parallel_lanes),
            ref.edp_improvement[0], bench::kTable1DatasetBytes);

    const double elements = bench::elements_in(kOneGiB);
    const baseline::GpuCost gpu_cost = gpu.run(elements, profile, kOneGiB);
    const double exact_t = exact.seconds_per_element(apim_cfg.parallel_lanes) *
                           elements;
    const double exact_e = exact.energy_pj_per_element * elements;
    exact_energy.add(gpu_cost.energy_pj / exact_e);
    exact_speedup.add(gpu_cost.seconds / exact_t);

    // Adaptive mode.
    const core::AccuracyTuner tuner;
    const auto golden = app->run_golden();
    const core::TunerResult tuned = tuner.tune(
        [&](unsigned m) {
          return apps::evaluate_relax(*app, golden, m).acceptable ? 0.0 : 1.0;
        },
        0.5);
    const bench::AppSample approx = bench::sample_app(*app, tuned.relax_bits);
    const double approx_t =
        approx.seconds_per_element(apim_cfg.parallel_lanes) * elements;
    const double approx_e = approx.energy_pj_per_element * elements;
    approx_speedup.add(gpu_cost.seconds / approx_t);
    const double approx_edp_ratio =
        gpu_cost.edp_js() / (approx_e * 1e-12 * approx_t);
    approx_edp.add(approx_edp_ratio);

    table.add_row({ref.app,
                   util::format_factor(gpu_cost.energy_pj / exact_e, 1),
                   util::format_factor(gpu_cost.seconds / exact_t, 2),
                   std::to_string(tuned.relax_bits),
                   util::format_factor(gpu_cost.seconds / approx_t, 2),
                   util::format_factor(approx_edp_ratio, 0)});

    util::JsonValue row = util::JsonValue::object();
    row.set("app", ref.app);
    row.set("exact_energy_gain", gpu_cost.energy_pj / exact_e);
    row.set("exact_speedup", gpu_cost.seconds / exact_t);
    row.set("tuned_relax_bits", static_cast<std::uint64_t>(tuned.relax_bits));
    row.set("approx_speedup", gpu_cost.seconds / approx_t);
    row.set("approx_edp_gain", approx_edp_ratio);
    per_app.append(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nMeans: exact energy %.1fx (paper 28x) | exact speedup %.2fx "
      "(paper 4.8x) | approx speedup max %.1fx (paper up to 20x) | approx "
      "EDP max %.0fx (paper up to 480x)\n",
      exact_energy.mean(), exact_speedup.mean(), approx_speedup.max(),
      approx_edp.max());

  bench::ShapeChecker checks;
  checks.check_range("mean exact energy gain at 1 GB (paper 28x)",
                     exact_energy.mean(), 14.0, 56.0);
  checks.check_range("mean exact speedup at 1 GB (paper 4.8x)",
                     exact_speedup.mean(), 2.4, 9.6);
  checks.check_range("max approx speedup at 1 GB (paper up to 20x)",
                     approx_speedup.max(), 6.0, 40.0);
  checks.check_range("max approx EDP gain at 1 GB (paper up to 480x)",
                     approx_edp.max(), 160.0, 1400.0);
  checks.check("approximation adds speedup on top of exact mode",
               approx_speedup.max() > exact_speedup.max());
  const int exit_code = checks.finish();

  if (!json_path.empty()) {
    util::JsonValue report = util::JsonValue::object();
    report.set("bench", "headline_summary");
    report.set("mean_exact_energy_gain", exact_energy.mean());
    report.set("mean_exact_speedup", exact_speedup.mean());
    report.set("max_approx_speedup", approx_speedup.max());
    report.set("max_approx_edp_gain", approx_edp.max());
    report.set("per_app", std::move(per_app));
    report.set("shape_checks", checks.to_json());
    report.set("all_checks_passed", checks.all_passed());
    bench::write_json_report(json_path, report);
  }
  return exit_code;
}
