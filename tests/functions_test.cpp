// Tests of the derived math functions (Newton iterations over APIM
// multiplies/adds).
#include <gtest/gtest.h>

#include <cmath>

#include "core/apim.hpp"
#include "core/functions.hpp"

namespace apim::core {
namespace {

TEST(Functions, Q16RoundTrip) {
  EXPECT_NEAR(from_q16(to_q16(3.14159)), 3.14159, 1e-4);
  EXPECT_NEAR(from_q16(to_q16(-0.5)), -0.5, 1e-4);
  EXPECT_EQ(to_q16(0.0), 0);
}

TEST(Functions, SqrtAccurateOverWideRange) {
  ApimDevice device;
  for (double x : {0.02, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1000.0}) {
    const double got = from_q16(apim_sqrt_q16(device, to_q16(x)));
    EXPECT_NEAR(got, std::sqrt(x), std::sqrt(x) * 0.01 + 0.01) << "x=" << x;
  }
}

TEST(Functions, SqrtOfZeroAndCost) {
  ApimDevice device;
  EXPECT_EQ(apim_sqrt_q16(device, 0), 0);
  EXPECT_EQ(device.stats().multiplies, 0u);  // Zero short-circuits.
  (void)apim_sqrt_q16(device, to_q16(2.0));
  // 6 iterations x 3 multiplies + final: the cost is real and visible.
  EXPECT_GE(device.stats().multiplies, 19u);
}

TEST(Functions, ReciprocalAccurate) {
  ApimDevice device;
  for (double x : {0.05, 0.25, 1.0, 3.0, 42.0, 512.0}) {
    const double got = from_q16(apim_reciprocal_q16(device, to_q16(x)));
    EXPECT_NEAR(got, 1.0 / x, (1.0 / x) * 0.01 + 1e-4) << "x=" << x;
  }
}

TEST(Functions, ReciprocalHandlesSignsAndZero) {
  ApimDevice device;
  EXPECT_NEAR(from_q16(apim_reciprocal_q16(device, to_q16(-4.0))), -0.25,
              1e-3);
  // Zero saturates rather than dividing.
  EXPECT_GT(apim_reciprocal_q16(device, 0), std::int64_t{1} << 30);
}

TEST(Functions, HypotMatchesEuclideanNorm) {
  ApimDevice device;
  struct Case {
    double a, b;
  };
  for (const Case c : {Case{3, 4}, Case{-3, 4}, Case{1, 1}, Case{0, 5},
                       Case{120, 50}}) {
    const double got =
        from_q16(apim_hypot_q16(device, to_q16(c.a), to_q16(c.b)));
    const double expect = std::hypot(c.a, c.b);
    EXPECT_NEAR(got, expect, expect * 0.02 + 0.01) << c.a << "," << c.b;
  }
}

TEST(Functions, RelaxationDegradesGracefully) {
  // The functions run on the device, so the approximation knob reaches
  // them: with m=24 the sqrt is still within a few percent.
  ApimConfig cfg;
  cfg.approx.relax_bits = 24;
  ApimDevice device{cfg};
  const double got = from_q16(apim_sqrt_q16(device, to_q16(9.0)));
  EXPECT_NEAR(got, 3.0, 0.2);
}

}  // namespace
}  // namespace apim::core
