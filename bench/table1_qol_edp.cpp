// Table 1 reproduction: quality loss and EDP improvement vs the GPU for
// all six applications at m = 0, 4, 8, 16, 24, 32 relax bits, plus the
// adaptive row (the tuner's chosen setting per application).
//
// Calibration (DESIGN.md substitution table): the GPU side of each
// application is anchored by fitting its per-element DRAM traffic so that
// the exact-mode (m = 0) EDP improvement matches the paper's Table 1
// value at the 256 MB reference dataset. Every other number — the QoL
// columns (measured by actually running the kernels approximately) and
// the growth of the EDP columns with m — follows from our models.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;

struct AppResult {
  std::string name;
  double edp_improvement[6];
  double qol_percent[6];
  unsigned tuned_m;
  double tuned_edp_improvement;
  bool tuned_qos_ok;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = util::configure_threads(argc, argv);
  std::puts("=== Table 1: QoL and EDP improvement vs GPU per relax level ===");
  std::printf("(reference dataset %s; QoL = normalized quality loss; paper "
              "values in parentheses; %zu host threads)\n\n",
              util::format_bytes(bench::kTable1DatasetBytes).c_str(),
              threads);

  const baseline::GpuModel gpu;
  const core::ApimConfig apim_cfg;
  std::vector<AppResult> results;

  for (const auto& ref : bench::kTable1Paper) {
    auto app = apps::make_application(ref.app);
    app->generate(bench::kSampleElements, bench::kSampleSeed);

    // Sample every relax setting.
    bench::AppSample samples[6];
    for (int i = 0; i < 6; ++i)
      samples[i] = bench::sample_app(*app, bench::kTable1RelaxBits[i]);

    // Calibrate the GPU traffic on the m = 0 anchor.
    baseline::GpuAppProfile profile = app->gpu_profile();
    profile.traffic_bytes_per_element =
        baseline::calibrate_traffic_for_edp_ratio(
            gpu, profile.ops_per_element,
            samples[0].edp_per_element_js(apim_cfg.parallel_lanes),
            ref.edp_improvement[0], bench::kTable1DatasetBytes);
    const baseline::GpuCost gpu_cost =
        gpu.run(1.0, profile, bench::kTable1DatasetBytes);

    AppResult res;
    res.name = ref.app;
    for (int i = 0; i < 6; ++i) {
      res.edp_improvement[i] =
          gpu_cost.edp_js() /
          samples[i].edp_per_element_js(apim_cfg.parallel_lanes);
      res.qol_percent[i] = samples[i].loss * 100.0;
    }

    // Adaptive runtime: the paper's tuner (start 32, step 4) driven by the
    // app's real QoS criterion.
    const core::AccuracyTuner tuner;
    const auto golden = app->run_golden();
    const auto evaluate = [&](unsigned m) {
      return apps::evaluate_relax(*app, golden, m).acceptable ? 0.0 : 1.0;
    };
    const core::TunerResult tuned = tuner.tune(evaluate, 0.5);
    res.tuned_m = tuned.relax_bits;
    res.tuned_qos_ok = tuned.met_qos;
    const bench::AppSample tuned_sample =
        bench::sample_app(*app, tuned.relax_bits);
    res.tuned_edp_improvement =
        gpu_cost.edp_js() /
        tuned_sample.edp_per_element_js(apim_cfg.parallel_lanes);
    results.push_back(res);
  }

  std::vector<std::string> header{"app"};
  for (unsigned m : bench::kTable1RelaxBits) {
    header.push_back("EDP@" + std::to_string(m));
    header.push_back("QoL@" + std::to_string(m));
  }
  header.push_back("tuned");
  util::TextTable table(header);
  util::CsvWriter csv("table1_qol_edp.csv");
  {
    std::vector<std::string> csv_header{"app"};
    for (unsigned m : bench::kTable1RelaxBits) {
      csv_header.push_back("edp_m" + std::to_string(m));
      csv_header.push_back("qol_m" + std::to_string(m));
    }
    csv_header.push_back("tuned_m");
    csv_header.push_back("tuned_edp");
    csv.write_row(csv_header);
  }

  for (std::size_t a = 0; a < results.size(); ++a) {
    const AppResult& r = results[a];
    const auto& ref = bench::kTable1Paper[a];
    std::vector<std::string> row{r.name};
    std::vector<std::string> csv_row{r.name};
    for (int i = 0; i < 6; ++i) {
      row.push_back(util::format_factor(r.edp_improvement[i], 0) + " (" +
                    util::format_factor(ref.edp_improvement[i], 0) + ")");
      row.push_back(util::format_double(r.qol_percent[i], 1) + "% (" +
                    util::format_double(ref.qol_percent[i], 1) + "%)");
      csv_row.push_back(util::format_double(r.edp_improvement[i], 2));
      csv_row.push_back(util::format_double(r.qol_percent[i], 3));
    }
    row.push_back("m=" + std::to_string(r.tuned_m) + ", " +
                  util::format_factor(r.tuned_edp_improvement, 0));
    csv_row.push_back(std::to_string(r.tuned_m));
    csv_row.push_back(util::format_double(r.tuned_edp_improvement, 2));
    table.add_row(row);
    csv.write_row(csv_row);
  }
  std::fputs(table.render().c_str(), stdout);

  double best_tuned_edp = 0.0;
  for (const AppResult& r : results)
    best_tuned_edp = std::max(best_tuned_edp, r.tuned_edp_improvement);
  std::printf("\nBest adaptive EDP improvement vs GPU: %.0fx (paper: up to "
              "480x)\n",
              best_tuned_edp);

  bench::ShapeChecker checks;
  for (const AppResult& r : results) {
    checks.check(r.name + ": m=0 anchor matches paper (calibrated)",
                 std::abs(r.edp_improvement[0] -
                          bench::kTable1Paper[&r - results.data()]
                              .edp_improvement[0]) /
                         bench::kTable1Paper[&r - results.data()]
                             .edp_improvement[0] <
                     0.02);
    // Overall upward trend; one local dip is tolerated (Sharpen shows one:
    // relaxed adds perturb its many exactly-zero diffs, densifying the
    // multiplier operands and buying back some of the saving — a real
    // sparsity interaction, discussed in EXPERIMENTS.md).
    int dips = 0;
    for (int i = 1; i < 6; ++i)
      if (r.edp_improvement[i] < r.edp_improvement[i - 1] * 0.98) ++dips;
    checks.check(r.name + ": EDP improvement trends up with relax bits",
                 dips <= 1 &&
                     r.edp_improvement[5] > 1.3 * r.edp_improvement[0]);
    // Monotone until saturation: once the output is fully decorrelated
    // (loss far beyond any QoS bar, > 50%), the measured average error is
    // noise and may wiggle — QuasiR's low-bit outputs reach that regime.
    bool qol_monotone = true;
    for (int i = 1; i < 6; ++i) {
      const bool saturated =
          r.qol_percent[i] > 50.0 && r.qol_percent[i - 1] > 50.0;
      qol_monotone &=
          saturated || r.qol_percent[i] >= r.qol_percent[i - 1] - 1e-9;
    }
    checks.check(r.name + ": quality loss grows with relax bits "
                          "(until saturation)",
                 qol_monotone);
    checks.check(r.name + ": exact mode is loss-free",
                 r.qol_percent[0] == 0.0);
    checks.check(r.name + ": tuner found a QoS-compliant setting",
                 r.tuned_qos_ok);
    checks.check(r.name + ": tuner exploits approximation (m > 0)",
                 r.tuned_m > 0);
  }
  // Cross-app ordering at the anchor follows the paper by construction;
  // check the adaptive gains land in the paper's order-of-magnitude band.
  checks.check_range("best adaptive EDP gain (paper: up to 480x)",
                     best_tuned_edp, 160.0, 1400.0);
  return checks.finish();
}
