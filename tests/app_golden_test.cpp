// Per-kernel golden-path validation: each application's reference output
// is checked against independently-derived expectations (hand-computed
// responses, analytic identities), not just against itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "apps/app.hpp"
#include "apps/gemm.hpp"
#include "apps/image_kernels.hpp"
#include "apps/signal_kernels.hpp"
#include "util/stats.hpp"

namespace apim::apps {
namespace {

/// Sample variance (n - 1 denominator), two-pass.
double sample_variance(const std::vector<double>& v) {
  double mean = 0.0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double sq = 0.0;
  for (const double x : v) sq += (x - mean) * (x - mean);
  return sq / static_cast<double>(v.size() - 1);
}

// ------------------------------------------------------------- images -----

// The image apps generate their own synthetic input; these tests exploit
// structural invariants that hold for ANY input.

TEST(GoldenSobel, ResponseIsNonNegativeAndBounded) {
  SobelApp app;
  app.generate(1024, 5);
  for (double v : app.run_golden()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 255.0);
  }
}

TEST(GoldenSobel, InteriorOfConstantRegionsIsSilent) {
  // The synthetic generator stamps solid rectangles/discs; gradient inside
  // them is zero. Rather than locating them, check the global property:
  // a significant share of pixels must have exactly zero response (flat
  // interiors exist), and a significant share must respond (edges exist).
  SobelApp app;
  app.generate(64 * 64, 9);
  const auto out = app.run_golden();
  std::size_t zeros = 0, strong = 0;
  for (double v : out) {
    if (v == 0.0) ++zeros;
    if (v >= 8.0) ++strong;
  }
  EXPECT_GT(zeros, out.size() / 10);
  EXPECT_GT(strong, out.size() / 200);
}

TEST(GoldenRobert, DetectsDiagonalSteps) {
  // Roberts cross is built on diagonal differences: gx = p(x,y) -
  // p(x+1,y+1). Its response must correlate with Sobel's on the same
  // input (both are edge energies).
  RobertApp robert;
  SobelApp sobel;
  robert.generate(48 * 48, 11);
  sobel.generate(48 * 48, 11);
  const auto r = robert.run_golden();
  const auto s = sobel.run_golden();
  // Count agreement on "edge vs flat" classification.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < r.size(); ++i)
    if ((r[i] > 16.0) == (s[i] > 16.0)) ++agree;
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(r.size()), 0.7);
}

TEST(GoldenSharpen, IsIdentityOnFlatRegionsAndBoostsEdges) {
  SharpenApp app;
  app.generate(48 * 48, 13);
  const auto out = app.run_golden();
  const util::Image input = util::make_synthetic_image(48, 48, 13);
  // On flat neighbourhoods output equals input; overall the output must
  // have at least the input's contrast (unsharp masking amplifies).
  std::vector<double> in_values;
  std::size_t identical = 0;
  for (std::size_t y = 0; y < 48; ++y) {
    for (std::size_t x = 0; x < 48; ++x) {
      const double in_v = input.at(x, y);
      in_values.push_back(in_v);
      if (in_v == out[y * 48 + x]) ++identical;
    }
  }
  EXPECT_GT(identical, out.size() / 20);  // Flat interiors pass through.
  // Contrast boosted.
  EXPECT_GE(sample_variance(out), sample_variance(in_values));
}

// ---------------------------------------------------------------- FFT -----

TEST(GoldenFft, ParsevalEnergyConsistency) {
  // With per-stage halving the pipeline computes X_k / n, so Parseval
  // (sum|X|^2 = n * sum|x|^2) becomes: spectral energy = sum|x|^2 / n =
  // E[|x|^2] for n samples. Inputs are uniform in [-0.9, 0.9] per
  // component: E[|x|^2] = 2 * 0.81/3 = 0.54. Statistical tolerance 50%.
  FftApp app;
  app.generate(64, 17);
  const auto out = app.run_golden();  // Interleaved re, im; L = 64.
  const std::size_t n = out.size() / 2;
  ASSERT_EQ(n, 64u);
  double spectral_energy = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    spectral_energy += out[2 * k] * out[2 * k] +
                       out[2 * k + 1] * out[2 * k + 1];
  const double expected = 0.54;
  EXPECT_NEAR(spectral_energy, expected, expected * 0.5);
}

TEST(GoldenFft, LinearityUnderScaling) {
  // The transform is linear: doubling the input index range (same seed)
  // preserves the energy relation; cheap sanity rather than deep math.
  FftApp small, large;
  small.generate(64, 19);
  large.generate(128, 19);
  EXPECT_EQ(small.run_golden().size(), 128u);
  EXPECT_EQ(large.run_golden().size(), 256u);
}

// ---------------------------------------------------------------- DWT -----

TEST(GoldenDwt, EnergyIsApproximatelyPreserved) {
  // Orthonormal Haar preserves energy; fixed-point truncation loses a
  // little. Compare coefficient energy against signal energy.
  DwtHaarApp app;
  app.generate(1024, 23);
  const auto coeffs = app.run_golden();
  double coeff_energy = 0.0;
  for (double c : coeffs) coeff_energy += c * c;
  // For a smooth (random-walk) input the transform compacts energy: the
  // largest 10% of coefficients must carry most of the total energy.
  std::vector<double> magnitudes;
  magnitudes.reserve(coeffs.size());
  for (double c : coeffs) magnitudes.push_back(c * c);
  std::sort(magnitudes.rbegin(), magnitudes.rend());
  double top_energy = 0.0;
  for (std::size_t i = 0; i < magnitudes.size() / 10; ++i)
    top_energy += magnitudes[i];
  EXPECT_GT(coeff_energy, 0.0);
  EXPECT_GT(top_energy, 0.5 * coeff_energy);
}

TEST(GoldenDwt, DetailCoefficientsAreSmallForSmoothSignals) {
  DwtHaarApp app;
  app.generate(512, 29);
  const auto coeffs = app.run_golden();
  // Level-1 details come first in the output (after the approximation
  // coefficient): they see adjacent-sample differences of a random walk
  // with step <= 0.1, bounded by 0.1/sqrt(2) plus quantization.
  const std::size_t first_level = coeffs.size() / 2;
  for (std::size_t i = 1; i < 1 + first_level; ++i)
    EXPECT_LT(std::abs(coeffs[i]), 0.08) << i;
}

// ------------------------------------------------------------- QuasiR -----

TEST(GoldenQuasiR, OutputsAreUnitIntervalAndWellSpread) {
  QuasiRandomApp app;
  app.generate(4096, 31);
  const auto out = app.run_golden();
  util::RunningStats stats;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    stats.add(v);
  }
  // Low-discrepancy scrambled sequence: mean near 1/2, variance near 1/12.
  EXPECT_NEAR(stats.mean(), 0.5, 0.03);
  EXPECT_NEAR(sample_variance(out), 1.0 / 12.0, 0.015);
}

TEST(GoldenQuasiR, StratificationBeatsRandom) {
  // In any 16-bucket histogram, the scrambled van-der-Corput points are
  // closer to uniform than iid-random spread would typically be.
  QuasiRandomApp app;
  app.generate(2048, 37);
  const auto out = app.run_golden();
  std::vector<int> histogram(16, 0);
  for (double v : out)
    ++histogram[static_cast<std::size_t>(v * 16.0) & 15];
  const double expected = static_cast<double>(out.size()) / 16.0;
  for (int count : histogram)
    EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.35);
}

// --------------------------------------------------------------- GEMM -----

TEST(GoldenGemm, MatchesDoubleMatmulWithinQuantization) {
  GemmApp app;
  app.generate(12 * 12, 41);
  const auto out = app.run_golden();
  ASSERT_EQ(out.size(), app.element_count());
  // Products of Q16 entries in [-0.9, 0.9): every output bounded by
  // side * 0.81.
  const double side = std::sqrt(static_cast<double>(out.size()));
  for (double v : out) EXPECT_LE(std::abs(v), side * 0.81 + 1.0);
}

TEST(GoldenGemm, ExactApimMatchesGolden) {
  GemmApp app;
  app.generate(8 * 8, 43);
  core::ApimDevice device;
  const auto golden = app.run_golden();
  const auto apim = app.run_apim(device);
  ASSERT_EQ(golden.size(), apim.size());
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_DOUBLE_EQ(golden[i], apim[i]) << i;
  EXPECT_GT(device.stats().multiplies, 0u);
}

TEST(GoldenGemm, InExtensionRegistry) {
  const auto apps = make_extension_applications();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0]->name(), "GEMM");
  EXPECT_NE(make_application("GEMM"), nullptr);
}

}  // namespace
}  // namespace apim::apps
