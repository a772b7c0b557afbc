#include "core/functions.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>

#include "util/bitops.hpp"

namespace apim::core {

namespace {
constexpr std::int64_t kOne = 1ll << 16;    // 1.0 in Q16.16.
constexpr std::int64_t kTwo = 2ll << 16;
constexpr std::int64_t kThree = 3ll << 16;
}  // namespace

std::int64_t to_q16(double value) {
  return util::to_fixed(value, kFuncFormat).signed_raw();
}

double from_q16(std::int64_t raw) {
  return util::from_fixed(util::fixed_from_raw(raw, kFuncFormat),
                          kFuncFormat);
}

std::int64_t apim_reciprocal_q16(ApimDevice& device, std::int64_t x,
                                 int iterations) {
  if (x == 0) return std::int64_t{1} << 31;  // Saturate: +infinity proxy.
  // Sign/magnitude split via the sign-mask identity rather than an abs
  // idiom: g++ 12.2 at -O2+ emits wrong code for neg+cmov abs patterns in
  // this particular function shape (operand clobbered before the
  // conditional move). The XOR/subtract form compiles correctly; the
  // regression test Functions.ReciprocalAccurate guards it.
  const auto sign = static_cast<std::uint64_t>(x >> 63);  // 0 or ~0.
  const bool negative = sign != 0;
  const std::uint64_t mag = (static_cast<std::uint64_t>(x) ^ sign) - sign;
  // Seed within ~1.5x of 2^32 / mag: y0 = 3 * 2^(30 - b) with b = msb(mag).
  const int b = util::msb_index(mag);
  std::int64_t y = (b <= 30) ? (std::int64_t{3} << (30 - b))
                             : (std::int64_t{3} >> (b - 30));
  if (y == 0) y = 1;
  // Newton-Raphson: y <- y * (2 - x*y); multiplies and adds only.
  for (int k = 0; k < iterations; ++k) {
    const std::int64_t xy =
        device.mul(static_cast<std::int64_t>(mag), y, kFuncFormat);
    const std::int64_t correction = device.add(kTwo, -xy);
    y = device.mul(y, correction, kFuncFormat);
  }
  return negative ? -y : y;
}

std::int64_t apim_sqrt_q16(ApimDevice& device, std::int64_t x,
                           int iterations) {
  assert(x >= 0);
  if (x == 0) return 0;
  // Inverse square root via y <- y*(3 - x*y^2)/2, then sqrt = x * y.
  // Seed UNDER the true 1/sqrt(x) (shift 23 instead of the exact 24) so
  // the iteration converges monotonically from below — overshooting makes
  // (3 - x*y^2) swing negative and oscillate in fixed point.
  const int b = util::msb_index(static_cast<std::uint64_t>(x));
  const int shift = 23 - b / 2;
  std::int64_t y = shift >= 0 ? (std::int64_t{1} << shift)
                              : (std::int64_t{1} >> -shift);
  if (y == 0) y = 1;
  for (int k = 0; k < iterations; ++k) {
    const std::int64_t y2 = device.mul(y, y, kFuncFormat);
    const std::int64_t xy2 = device.mul(x, y2, kFuncFormat);
    const std::int64_t correction = device.add(kThree, -xy2);
    y = device.mul(y, correction, kFuncFormat) >> 1;  // /2 is free wiring.
  }
  return device.mul(x, y, kFuncFormat);
}

std::int64_t apim_hypot_q16(ApimDevice& device, std::int64_t a,
                            std::int64_t b) {
  // Intended for normalized signals (|value| <~ 180 in Q16.16 so the
  // squares stay inside the 32-bit datapath).
  const std::int64_t a2 = device.mul(a, a, kFuncFormat);
  const std::int64_t b2 = device.mul(b, b, kFuncFormat);
  const std::int64_t sum = device.add(a2, b2);
  return apim_sqrt_q16(device, sum);
}

}  // namespace apim::core
