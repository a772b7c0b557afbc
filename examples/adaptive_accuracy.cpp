// Adaptive accuracy example: the paper's runtime flow over all six
// applications.
//
// For each application the tuner starts at the maximum approximation
// (32 relax bits) and steps down by 4 until the application-specific QoS
// criterion holds (30 dB PSNR for images, <10% average relative error for
// numeric kernels). The example prints each tuner trajectory and the
// resulting latency/energy/EDP gains over exact mode.
#include <cstdio>
#include <string>

#include "apps/app.hpp"
#include "core/tuner.hpp"
#include "quality/qos.hpp"
#include "util/table.hpp"

int main() {
  using namespace apim;

  std::puts("== APIM adaptive accuracy across the six applications ==\n");

  util::TextTable table({"app", "QoS criterion", "tuned m", "QoL", "cycles gain",
                         "energy gain", "EDP gain"});

  for (const auto& app : apps::make_all_applications()) {
    app->generate(4096, /*seed=*/7);
    const auto golden = app->run_golden();
    const quality::QosSpec spec = app->qos();

    core::ApimDevice exact_device;
    (void)app->run_apim(exact_device);

    // The tuner may evaluate several settings at once, so the trajectory
    // is printed from its history, not from inside the evaluation.
    const core::AccuracyTuner tuner;
    const core::TunerResult tuned = tuner.tune(
        [&](unsigned m) {
          return apps::evaluate_relax(*app, golden, m).acceptable ? 0.0 : 1.0;
        },
        0.5);
    std::printf("%s tuner trajectory:", app->name().c_str());
    for (const core::TunerStep& step : tuned.history)
      std::printf(" m=%u(%s)", step.relax_bits, step.acceptable ? "ok" : "x");
    std::puts("");

    core::ApimConfig cfg;
    cfg.approx.relax_bits = tuned.relax_bits;
    core::ApimDevice tuned_device{cfg};
    const auto out = app->run_apim(tuned_device);
    const auto eval = quality::evaluate_qos(spec, golden, out);

    const std::string criterion =
        spec.kind == quality::QosKind::kPsnr
            ? ">= " + util::format_double(spec.threshold, 0) + " dB PSNR"
            : "<= " + util::format_percent(spec.threshold, 0) + " rel err";
    table.add_row(
        {app->name(), criterion, "m=" + std::to_string(tuned.relax_bits),
         util::format_percent(eval.loss, 2),
         util::format_factor(
             static_cast<double>(exact_device.stats().cycles) /
                 static_cast<double>(tuned_device.stats().cycles),
             2),
         util::format_factor(exact_device.energy_pj() /
                                 tuned_device.energy_pj(),
                             2),
         util::format_factor(exact_device.edp_js() / tuned_device.edp_js(),
                             2)});
  }

  std::puts("");
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nThe EDP-gain column is what Table 1's adaptive row monetizes "
            "against the GPU baseline (see bench/table1_qol_edp).");
  return 0;
}
