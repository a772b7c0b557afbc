// Fixed-point format selection and vector quantization.
//
// The paper's OpenCL applications compute on floats; APIM computes on
// integer magnitudes. Mapping a kernel onto the device means choosing a
// Q-format per signal. Two forces pull in opposite directions:
//  * quantization error shrinks with more fraction bits;
//  * *relaxation* error shrinks when values occupy the UPPER bits of the
//    datapath (the relaxed adder's error is absolute, ~2^m, so relative
//    error falls as magnitudes grow — see arith/approx.hpp).
// choose_format() implements that trade: it picks the largest fraction
// width that keeps the value range representable, pushing magnitudes as
// high as the word allows.
#pragma once

#include <span>
#include <vector>

#include "util/fixed_point.hpp"

namespace apim::core {

/// Pick a format for values in [-max_magnitude, +max_magnitude]: the
/// smallest integer width that holds the magnitude, all remaining bits as
/// fraction. `word_bits` is the device datapath width.
[[nodiscard]] util::FixedPointFormat choose_format(double max_magnitude,
                                                   unsigned word_bits = 32);

/// Quantize a vector; returns signed raws in the chosen format.
[[nodiscard]] std::vector<std::int64_t> quantize(std::span<const double> values,
                                                 util::FixedPointFormat fmt);

}  // namespace apim::core
