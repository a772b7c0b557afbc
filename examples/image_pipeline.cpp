// Image pipeline example: Sobel edge detection on APIM, exact vs
// approximate, with PGM outputs you can open in any viewer.
//
// Demonstrates the application layer: a synthetic photograph substitute is
// generated, the Sobel kernel runs once on the exact device and once at a
// QoS-tuned relax setting, and the example reports PSNR, latency, energy
// and EDP side by side, then writes input/exact/approx images as PGM.
#include <cmath>
#include <cstdio>
#include <vector>

#include "apps/app.hpp"
#include "core/tuner.hpp"
#include "quality/qos.hpp"
#include "util/image.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace apim;

  // Host-parallelism knob: --threads N (or the APIM_THREADS env var).
  // Purely a wall-clock knob; every reported number is bit-identical.
  const std::size_t threads = util::configure_threads(argc, argv);
  std::printf("== APIM image pipeline: Sobel == (%zu host threads)\n\n",
              threads);

  auto app = apps::make_application("Sobel");
  app->generate(128 * 128, /*seed=*/42);
  std::printf("input: %zu pixels (synthetic Caltech-101 substitute)\n",
              app->element_count());

  const std::vector<double> golden = app->run_golden();

  // Exact run.
  core::ApimDevice exact_device;
  const std::vector<double> exact_out = app->run_apim(exact_device);
  const auto exact_eval =
      quality::evaluate_qos(app->qos(), golden, exact_out);
  std::printf("\nexact:  PSNR %s, cycles %llu, energy %.2f uJ, EDP %.3e J*s\n",
              exact_eval.metric > 1e9 ? "inf" : "finite",
              static_cast<unsigned long long>(exact_device.stats().cycles),
              exact_device.energy_pj() * 1e-6, exact_device.edp_js());

  // Tune the relax bits against the 30 dB QoS bar (paper Section 4.1).
  const core::AccuracyTuner tuner;
  const core::TunerResult tuned = tuner.tune(
      [&](unsigned m) {
        return apps::evaluate_relax(*app, golden, m).acceptable ? 0.0 : 1.0;
      },
      0.5);
  std::printf("\ntuner: chose m=%u after %zu evaluations\n", tuned.relax_bits,
              tuned.history.size());

  core::ApimConfig approx_cfg;
  approx_cfg.approx.relax_bits = tuned.relax_bits;
  core::ApimDevice approx_device{approx_cfg};
  const std::vector<double> approx_out = app->run_apim(approx_device);
  const auto approx_eval =
      quality::evaluate_qos(app->qos(), golden, approx_out);
  std::printf("approx: PSNR %.1f dB (QoS >= 30 dB: %s), cycles %llu, energy "
              "%.2f uJ, EDP %.3e J*s\n",
              approx_eval.metric, approx_eval.acceptable ? "met" : "MISSED",
              static_cast<unsigned long long>(approx_device.stats().cycles),
              approx_device.energy_pj() * 1e-6, approx_device.edp_js());
  std::printf("approximation gain: %.2fx cycles, %.2fx energy, %.2fx EDP\n",
              static_cast<double>(exact_device.stats().cycles) /
                  static_cast<double>(approx_device.stats().cycles),
              exact_device.energy_pj() / approx_device.energy_pj(),
              exact_device.edp_js() / approx_device.edp_js());

  // Write the images.
  const auto to_image = [](const std::vector<double>& pixels) {
    const auto side = static_cast<std::size_t>(std::sqrt(
        static_cast<double>(pixels.size())));
    util::Image img(side, side);
    for (std::size_t i = 0; i < side * side; ++i)
      img.pixels()[i] = static_cast<std::uint8_t>(pixels[i]);
    return img;
  };
  const util::Image input = util::make_synthetic_image(128, 128, 42);
  bool ok = input.write_pgm("sobel_input.pgm");
  ok &= to_image(exact_out).write_pgm("sobel_exact.pgm");
  ok &= to_image(approx_out).write_pgm("sobel_approx.pgm");
  std::printf("\n%s sobel_input.pgm / sobel_exact.pgm / sobel_approx.pgm\n",
              ok ? "wrote" : "could not write");
  return 0;
}
