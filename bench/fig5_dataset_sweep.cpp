// Figure 5 reproduction: energy saving and speedup of EXACT APIM
// normalized to the GPU, as the dataset grows from 32 MB to 1 GB, for
// Sobel, Robert, FFT and DwtHaar1D.
//
// Shape to reproduce (paper Section 4.2): at small datasets the GPU's CMOS
// compute wins; as the dataset outgrows on-chip reuse the GPU becomes
// movement-bound while APIM scales linearly, so both improvement factors
// grow with dataset size, crossing 1x in the tens-of-MB region and
// reaching the ~28x energy / ~4.8x speedup regime at 1 GB.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;

constexpr const char* kApps[] = {"Sobel", "Robert", "FFT", "DwtHaar1D"};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = util::configure_threads(argc, argv);
  std::printf(
      "=== Figure 5: exact APIM energy saving & speedup vs GPU over "
      "dataset size === (%zu host threads)\n\n",
      threads);

  const std::vector<double> datasets = {
      32.0 * 1024 * 1024,  64.0 * 1024 * 1024,  128.0 * 1024 * 1024,
      256.0 * 1024 * 1024, 512.0 * 1024 * 1024, 1024.0 * 1024 * 1024};

  const baseline::GpuModel gpu;
  const core::ApimConfig apim_cfg;  // Default calibrated lane count.

  util::TextTable table(
      {"app", "dataset", "energy improvement", "speedup"});
  util::CsvWriter csv("fig5_dataset_sweep.csv");
  csv.write_row({"app", "dataset_bytes", "energy_improvement", "speedup"});

  // Per-app measured APIM cost and GPU profile; traffic is calibrated once
  // per app against its Table 1 exact-mode anchor (see bench_common.hpp).
  std::map<std::string, std::vector<double>> energy_series, speedup_series;

  for (const char* name : kApps) {
    auto app = apps::make_application(name);
    app->generate(bench::kSampleElements, bench::kSampleSeed);
    const bench::AppSample sample = bench::sample_app(*app, /*relax=*/0);
    const double apim_t_el =
        sample.seconds_per_element(apim_cfg.parallel_lanes);
    const double apim_e_el = sample.energy_pj_per_element;

    // Calibrate the app's per-element traffic at the Table 1 anchor.
    double anchor = 0.0;
    for (const auto& ref : bench::kTable1Paper)
      if (std::string(ref.app) == name) anchor = ref.edp_improvement[0];
    baseline::GpuAppProfile profile = app->gpu_profile();
    profile.traffic_bytes_per_element = baseline::calibrate_traffic_for_edp_ratio(
        gpu, profile.ops_per_element,
        sample.edp_per_element_js(apim_cfg.parallel_lanes), anchor,
        bench::kTable1DatasetBytes);

    for (double dataset : datasets) {
      const double elements = bench::elements_in(dataset);
      const baseline::GpuCost gpu_cost = gpu.run(elements, profile, dataset);
      const double apim_seconds = apim_t_el * elements;
      const double apim_energy = apim_e_el * elements;
      const double energy_improvement = gpu_cost.energy_pj / apim_energy;
      const double speedup = gpu_cost.seconds / apim_seconds;
      energy_series[name].push_back(energy_improvement);
      speedup_series[name].push_back(speedup);
      table.add_row({name, util::format_bytes(dataset),
                     util::format_factor(energy_improvement, 1),
                     util::format_factor(speedup, 2)});
      csv.write_row({name, util::format_double(dataset, 0),
                     util::format_double(energy_improvement, 4),
                     util::format_double(speedup, 4)});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  // Headline aggregates at 1 GB.
  util::RunningStats energy_1g, speedup_1g;
  for (const char* name : kApps) {
    energy_1g.add(energy_series[name].back());
    speedup_1g.add(speedup_series[name].back());
  }
  std::printf("\nAt 1 GB: mean energy improvement %.1fx (paper: 28x), mean "
              "speedup %.2fx (paper: 4.8x)\n",
              energy_1g.mean(), speedup_1g.mean());

  bench::ShapeChecker checks;
  for (const char* name : kApps) {
    const auto& e = energy_series[name];
    const auto& s = speedup_series[name];
    bool e_monotone = true, s_monotone = true;
    for (std::size_t i = 1; i < e.size(); ++i) {
      e_monotone &= e[i] >= e[i - 1];
      s_monotone &= s[i] >= s[i - 1];
    }
    checks.check(std::string(name) +
                     ": improvements grow monotonically with dataset size",
                 e_monotone && s_monotone);
    checks.check(std::string(name) + ": APIM wins both metrics at 1 GB",
                 e.back() > 1.0 && s.back() > 1.0);
    // Growth between 32 MB and 1 GB must be substantial (movement-bound
    // regime kicks in), not flat.
    checks.check(std::string(name) + ": 1 GB speedup >= 2x the 32 MB speedup",
                 s.back() >= 2.0 * s.front());
  }
  checks.check_range("mean energy improvement at 1 GB (paper: 28x)",
                     energy_1g.mean(), 14.0, 56.0);
  checks.check_range("mean speedup at 1 GB (paper: 4.8x)", speedup_1g.mean(),
                     2.4, 9.6);
  return checks.finish();
}
