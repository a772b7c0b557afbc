// Adaptive accuracy tuner (paper Section 4.1).
//
// "To find a proper level of accuracy, our framework computes APIM at the
// maximum level of approximation (32 relax bits). In case of large
// inaccuracy, it increases the level of accuracy in 4-bit steps until
// ensuring the acceptable quality of service." The tuned value is computed
// offline per application and applied at runtime when the application is
// detected (Section 4.3).
//
// The tuner tries candidates side by side: each wave evaluates as many
// of them, in schedule order, as util::ThreadPool::global() has
// executors, and then walks the wave in order up to the first acceptable
// one. What a wave evaluated past that candidate is dropped, so the
// result, history included, is the serial walk's at every thread count,
// and a pool of one runs the serial walk itself. The price is at most a
// wave's width minus one evaluations that a serial walk would not run.
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
  ///
  /// `evaluate` must be pure and thread-safe: a wave calls it for several
  /// settings at once, from pool threads, and for settings past the one
  /// the tuner accepts. apps::evaluate_relax is: it runs a const
  /// Application on a values-only device of its own. Work that
  /// `evaluate` itself hands to the pool (apps::parallel_map) then runs
  /// inline on its thread. An exception from `evaluate` propagates if the
  /// serial walk would have reached its setting.
  ///
  /// Called from inside a pool chunk, a wave runs serially.
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
