#include "core/quantize.hpp"

#include <cassert>

namespace apim::core {

util::FixedPointFormat choose_format(double max_magnitude,
                                     unsigned word_bits) {
  assert(word_bits >= 2 && word_bits <= 32);
  assert(max_magnitude >= 0.0);
  // Integer bits needed for the magnitude (at least 1 so format math stays
  // sane for sub-unit ranges is NOT forced: pure fractions get 0 integer
  // bits and use the full word for fraction).
  unsigned integer_bits = 0;
  while (integer_bits < word_bits &&
         max_magnitude >= static_cast<double>(1ull << integer_bits)) {
    ++integer_bits;
  }
  return util::FixedPointFormat{integer_bits, word_bits - integer_bits};
}

std::vector<std::int64_t> quantize(std::span<const double> values,
                                   util::FixedPointFormat fmt) {
  std::vector<std::int64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(util::to_fixed(v, fmt).signed_raw());
  return out;
}

}  // namespace apim::core
