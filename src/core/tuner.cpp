#include "core/tuner.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace apim::core {

AccuracyTuner::AccuracyTuner(unsigned max_relax, unsigned step)
    : max_relax_(max_relax), step_(step) {
  if (step_ == 0) {
    throw std::invalid_argument("AccuracyTuner: step must be >= 1");
  }
}

TunerResult AccuracyTuner::tune(
    const std::function<double(unsigned)>& evaluate, double threshold) const {
  const std::vector<unsigned> schedule = relax_candidates();
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t wave = pool.size();
  std::vector<double> errors(schedule.size());
  // An evaluation that throws stops the walk where a serial walk would
  // have met it, not where its wave happened to be.
  std::vector<std::exception_ptr> failures(schedule.size());
  TunerResult result;
  for (std::size_t begin = 0; begin < schedule.size(); begin += wave) {
    const std::size_t end = std::min(begin + wave, schedule.size());
    pool.parallel_for(begin, end, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          errors[i] = evaluate(schedule[i]);
        } catch (...) {
          failures[i] = std::current_exception();
        }
      }
    });
    // The wave's candidates in schedule order, up to the first acceptable
    // one: what the wave evaluated past it is dropped.
    for (std::size_t i = begin; i < end; ++i) {
      if (failures[i]) std::rethrow_exception(failures[i]);
      const bool acceptable = errors[i] <= threshold;
      result.history.push_back(TunerStep{schedule[i], errors[i], acceptable});
      if (acceptable) {
        result.relax_bits = schedule[i];
        result.error = errors[i];
        result.met_qos = true;
        return result;
      }
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
