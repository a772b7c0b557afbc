// Adaptive accuracy tuner (paper Section 4.1).
//
// "To find a proper level of accuracy, our framework computes APIM at the
// maximum level of approximation (32 relax bits). In case of large
// inaccuracy, it increases the level of accuracy in 4-bit steps until
// ensuring the acceptable quality of service." The tuned value is computed
// offline per application and applied at runtime when the application is
// detected (Section 4.3).
#pragma once

#include <functional>
#include <vector>

namespace apim::core {

struct TunerStep {
  unsigned relax_bits = 0;
  double error = 0.0;  ///< Quality-loss metric at this setting.
  bool acceptable = false;
};

struct TunerResult {
  unsigned relax_bits = 0;  ///< Chosen setting (0 = exact fallback).
  double error = 0.0;
  bool met_qos = false;     ///< False only if even exact mode fails.
  std::vector<TunerStep> history;
};

class AccuracyTuner {
 public:
  /// `max_relax` start point and `step` decrement, per the paper (32 / 4).
  /// Throws std::invalid_argument for step 0, whose schedule never ends.
  explicit AccuracyTuner(unsigned max_relax = 32, unsigned step = 4);

  /// `evaluate(m)` must run the application at relax setting `m` and return
  /// its quality-loss metric (lower is better, e.g. average relative error,
  /// or a PSNR deficit). `threshold` is the largest acceptable loss.
  [[nodiscard]] TunerResult tune(
      const std::function<double(unsigned)>& evaluate, double threshold) const;

  /// The descending relax schedule tune() walks: max_relax, max_relax-step,
  /// ..., 0. Exposed so offline table builders (serve::build_qos_table) and
  /// sweeps enumerate exactly the settings the tuner would consider.
  [[nodiscard]] std::vector<unsigned> relax_candidates() const;

 private:
  unsigned max_relax_;
  unsigned step_;
};

}  // namespace apim::core
