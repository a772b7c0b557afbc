// Application interface: the six OpenCL workloads of the paper's
// evaluation (Sobel, Robert, FFT, DwtHaar1D, Sharpen, QuasiRandom),
// re-implemented in C++ against the ApimDevice API (see DESIGN.md's
// substitution table for the OpenCL-runtime substitution).
//
// Every application provides two paths over the same generated input:
//  * run_golden(): exact double-precision reference ("golden output" in the
//    paper's accuracy framework, Section 4.1);
//  * run_apim(): the same algorithm with every multiply/add issued to an
//    ApimDevice, which computes through the validated in-memory models and
//    accumulates cycles/energy.
// Kernels use integer/fixed-point scaling chosen to mirror the OpenCL
// originals (8-bit pixels, Q-format signal processing).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "core/apim.hpp"
#include "quality/qos.hpp"

namespace apim::apps {

class Application {
 public:
  virtual ~Application() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Acceptance criterion: images use 30 dB PSNR, numeric kernels 10%
  /// average relative error (paper Section 4.1).
  [[nodiscard]] virtual quality::QosSpec qos() const = 0;

  /// Generate a deterministic workload with roughly `elements` input
  /// elements (images round to a square, FFT to a power of two).
  virtual void generate(std::size_t elements, std::uint64_t seed) = 0;

  /// Number of input elements actually generated.
  [[nodiscard]] virtual std::size_t element_count() const = 0;

  /// Exact reference output.
  [[nodiscard]] virtual std::vector<double> run_golden() const = 0;

  /// Same computation through the APIM device (respects the device's
  /// current approximation configuration and accumulates its stats).
  [[nodiscard]] virtual std::vector<double> run_apim(
      core::ApimDevice& device) const = 0;

  /// Per-element workload intensity for the GPU baseline model.
  [[nodiscard]] virtual baseline::GpuAppProfile gpu_profile() const = 0;
};

/// All six applications, in the paper's Table 1 order.
[[nodiscard]] std::vector<std::unique_ptr<Application>> make_all_applications();

/// Factory by name ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen",
/// "QuasiR", plus extension apps like "GEMM"); returns nullptr for unknown
/// names.
[[nodiscard]] std::unique_ptr<Application> make_application(
    std::string_view name);

/// Extension workloads beyond the paper's six (currently: GEMM).
[[nodiscard]] std::vector<std::unique_ptr<Application>>
make_extension_applications();

/// The tuner's probe (paper Section 4.1): run `app` (already generated) at
/// `relax_bits` on a values-only device (core::ApimDevice::values_only) and
/// evaluate the output against `golden` under app.qos(). The output equals
/// a full-model run's; no cycles or energy are modeled.
[[nodiscard]] quality::QosEvaluation evaluate_relax(
    const Application& app, std::span<const double> golden,
    unsigned relax_bits);

}  // namespace apim::apps
