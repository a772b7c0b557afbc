// Quality-of-result metrics (paper Section 4.1): PSNR for image outputs
// (30 dB acceptance) and average relative error for everything else
// (<10% acceptance).
#pragma once

#include <span>

namespace apim::quality {

/// Peak signal-to-noise ratio in dB between a golden and a test signal,
/// with the given peak value (255 for 8-bit images). Returns +infinity for
/// identical signals.
[[nodiscard]] double psnr_db(std::span<const double> golden,
                             std::span<const double> test, double peak);

/// Mean of |test - golden| / max(|golden|, floor). The floor guards the
/// metric against near-zero golden samples dominating the average (the
/// usual convention in approximate-computing evaluations).
[[nodiscard]] double average_relative_error(std::span<const double> golden,
                                            std::span<const double> test,
                                            double floor = 1e-6);

/// Root-mean-square error.
[[nodiscard]] double rmse(std::span<const double> golden,
                          std::span<const double> test);

}  // namespace apim::quality
