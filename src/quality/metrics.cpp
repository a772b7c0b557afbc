#include "quality/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace apim::quality {

double psnr_db(std::span<const double> golden, std::span<const double> test,
               double peak) {
  assert(golden.size() == test.size());
  assert(!golden.empty());
  assert(peak > 0.0);
  double mse = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double d = golden[i] - test[i];
    mse += d * d;
  }
  mse /= static_cast<double>(golden.size());
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / mse);
}

double average_relative_error(std::span<const double> golden,
                              std::span<const double> test, double floor) {
  assert(golden.size() == test.size());
  assert(!golden.empty());
  double total = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double denom = std::max(std::abs(golden[i]), floor);
    total += std::abs(test[i] - golden[i]) / denom;
  }
  return total / static_cast<double>(golden.size());
}

double rmse(std::span<const double> golden, std::span<const double> test) {
  assert(golden.size() == test.size());
  assert(!golden.empty());
  double mse = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double d = golden[i] - test[i];
    mse += d * d;
  }
  return std::sqrt(mse / static_cast<double>(golden.size()));
}

}  // namespace apim::quality
