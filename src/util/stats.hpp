// Small streaming-statistics helpers used by the quality framework and the
// benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace apim::util {

/// Streaming accumulator: running mean, min / max, sum, count.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// p in [0,1]; linear interpolation between order statistics (the
/// convention serve::Metrics latency percentiles are pinned to): at
/// position p*(n-1), p=0 is the minimum, p=1 the maximum, a single
/// sample is every percentile, and empty input yields 0.0. Copies and
/// sorts, so intended for offline analysis, not hot loops.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace apim::util
