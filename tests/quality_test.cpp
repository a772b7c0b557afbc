// Tests of the quality metrics and QoS evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "quality/metrics.hpp"
#include "quality/qos.hpp"

namespace apim::quality {
namespace {

TEST(Metrics, PsnrIdenticalIsInfinite) {
  const std::vector<double> a{1, 2, 3};
  EXPECT_TRUE(std::isinf(psnr_db(a, a, 255.0)));
}

TEST(Metrics, PsnrKnownValue) {
  // MSE = 1 against peak 255: PSNR = 20*log10(255) ~ 48.13 dB.
  const std::vector<double> golden{10, 20, 30, 40};
  const std::vector<double> test{11, 19, 31, 39};
  EXPECT_NEAR(psnr_db(golden, test, 255.0), 48.13, 0.01);
}

TEST(Metrics, PsnrDecreasesWithNoise) {
  const std::vector<double> golden{100, 100, 100, 100};
  const std::vector<double> small{101, 99, 101, 99};
  const std::vector<double> large{110, 90, 110, 90};
  EXPECT_GT(psnr_db(golden, small, 255.0), psnr_db(golden, large, 255.0));
}

TEST(Metrics, AverageRelativeError) {
  const std::vector<double> golden{100, 200};
  const std::vector<double> test{110, 180};
  // (0.1 + 0.1) / 2.
  EXPECT_NEAR(average_relative_error(golden, test), 0.10, 1e-12);
}

TEST(Metrics, RelativeErrorFloorGuardsZeros) {
  const std::vector<double> golden{0.0};
  const std::vector<double> test{0.5};
  // Without the floor this would be infinite.
  EXPECT_NEAR(average_relative_error(golden, test, 1.0), 0.5, 1e-12);
}

TEST(Metrics, Rmse) {
  const std::vector<double> golden{0, 0, 0, 0};
  const std::vector<double> test{3, -4, 0, 0};
  EXPECT_NEAR(rmse(golden, test), 2.5, 1e-12);
}

TEST(Qos, ImageSpecAcceptsAbove30Db) {
  const QosSpec spec = QosSpec::image();
  std::vector<double> golden(100, 128.0);
  std::vector<double> slightly_off(100, 128.0);
  slightly_off[0] = 133.0;  // Tiny MSE -> very high PSNR.
  const QosEvaluation good = evaluate_qos(spec, golden, slightly_off);
  EXPECT_TRUE(good.acceptable);
  EXPECT_GT(good.metric, 30.0);

  std::vector<double> noisy(100);
  for (std::size_t i = 0; i < noisy.size(); ++i)
    noisy[i] = 128.0 + ((i % 2) ? 40.0 : -40.0);
  const QosEvaluation bad = evaluate_qos(spec, golden, noisy);
  EXPECT_FALSE(bad.acceptable);
  EXPECT_LT(bad.metric, 30.0);
}

TEST(Qos, NumericSpecTenPercent) {
  const QosSpec spec = QosSpec::numeric();
  const std::vector<double> golden{1.0, 2.0, 4.0};
  const std::vector<double> within{1.05, 1.9, 4.1};
  EXPECT_TRUE(evaluate_qos(spec, golden, within).acceptable);
  const std::vector<double> outside{1.5, 2.6, 3.0};
  EXPECT_FALSE(evaluate_qos(spec, golden, outside).acceptable);
}

TEST(Qos, LossIsComparableAcrossKinds) {
  // Identical outputs give zero loss for both kinds.
  const std::vector<double> golden{10, 20, 30};
  EXPECT_EQ(evaluate_qos(QosSpec::image(), golden, golden).loss, 0.0);
  EXPECT_EQ(evaluate_qos(QosSpec::numeric(), golden, golden).loss, 0.0);
}

TEST(Qos, KindNames) {
  EXPECT_EQ(to_string(QosKind::kPsnr), "PSNR");
  EXPECT_EQ(to_string(QosKind::kRelativeError), "RelErr");
}

}  // namespace
}  // namespace apim::quality
