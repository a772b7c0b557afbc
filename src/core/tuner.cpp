#include "core/tuner.hpp"

#include <stdexcept>

namespace apim::core {

AccuracyTuner::AccuracyTuner(unsigned max_relax, unsigned step)
    : max_relax_(max_relax), step_(step) {
  if (step_ == 0) {
    throw std::invalid_argument("AccuracyTuner: step must be >= 1");
  }
}

TunerResult AccuracyTuner::tune(
    const std::function<double(unsigned)>& evaluate, double threshold) const {
  TunerResult result;
  for (const unsigned m : relax_candidates()) {
    const double error = evaluate(m);
    const bool acceptable = error <= threshold;
    result.history.push_back(TunerStep{m, error, acceptable});
    if (acceptable) {
      result.relax_bits = m;
      result.error = error;
      result.met_qos = true;
      return result;
    }
  }
  // Even exact mode failed the QoS check.
  result.relax_bits = 0;
  result.error = result.history.back().error;
  result.met_qos = false;
  return result;
}

std::vector<unsigned> AccuracyTuner::relax_candidates() const {
  std::vector<unsigned> schedule;
  unsigned m = max_relax_;
  for (;;) {
    schedule.push_back(m);
    if (m == 0) break;
    m = (m > step_) ? m - step_ : 0;
  }
  return schedule;
}

}  // namespace apim::core
