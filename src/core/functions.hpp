// Derived math functions on the APIM datapath.
//
// The paper's applications contain operations beyond add/multiply; it
// notes that "the other common operations such as square root has been
// approximated by these two functions in OpenCL code" (Section 4.1). This
// module provides those approximations as library routines: Newton
// iterations whose every multiply and add runs through an ApimDevice, so
// they inherit the device's cost accounting and approximation setting.
//
// All functions use Q16.16 fixed point (the natural format for the 32-bit
// datapath) with sign handling where meaningful.
#pragma once

#include <cstdint>

#include "core/apim.hpp"

namespace apim::core {

/// Fixed-point format used by the function library.
inline constexpr util::FixedPointFormat kFuncFormat{16, 16};

/// Convert to/from the library's Q16.16 raws.
[[nodiscard]] std::int64_t to_q16(double value);
[[nodiscard]] double from_q16(std::int64_t raw);

/// sqrt(x) for x >= 0 via Newton's method on y_{k+1} = (y_k + x/y_k)/2,
/// with the division replaced by a reciprocal iteration (multiplies only).
/// `iterations` Newton steps (default 6 reaches < 1% over [1e-2, 1e3]).
[[nodiscard]] std::int64_t apim_sqrt_q16(ApimDevice& device, std::int64_t x,
                                         int iterations = 6);

/// 1/x for x != 0 via Newton-Raphson y_{k+1} = y_k * (2 - x*y_k):
/// multiplies and adds only, the canonical APIM-friendly division.
[[nodiscard]] std::int64_t apim_reciprocal_q16(ApimDevice& device,
                                               std::int64_t x,
                                               int iterations = 5);

/// Euclidean norm approximation sqrt(a^2 + b^2) — the gradient-magnitude
/// operation of the edge detectors, composed from the primitives above.
[[nodiscard]] std::int64_t apim_hypot_q16(ApimDevice& device, std::int64_t a,
                                          std::int64_t b);

}  // namespace apim::core
