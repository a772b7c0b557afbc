// Quality-of-service acceptance criteria (paper Section 4.1):
// image kernels accept >= 30 dB PSNR; everything else accepts < 10%
// average relative error.
#pragma once

#include <span>
#include <string>

namespace apim::quality {

enum class QosKind {
  kPsnr,           ///< Image outputs: PSNR >= threshold (dB).
  kRelativeError,  ///< Numeric outputs: avg relative error <= threshold.
};

struct QosSpec {
  QosKind kind = QosKind::kRelativeError;
  double threshold = 0.10;  ///< dB for kPsnr, fraction for kRelativeError.
  double peak = 255.0;      ///< Peak value for PSNR.
  /// Denominator floor for the relative-error metric, in output units
  /// (guards near-zero golden samples; 1% of unit scale for the numeric
  /// kernels whose outputs live in [-1, 1]).
  double relative_floor = 0.01;

  [[nodiscard]] static QosSpec image() {
    return QosSpec{QosKind::kPsnr, 30.0, 255.0, 1.0};
  }
  [[nodiscard]] static constexpr QosSpec numeric() {
    return QosSpec{QosKind::kRelativeError, 0.10, 1.0, 0.01};
  }

  /// The acceptance threshold expressed in normalized-loss units
  /// (QosEvaluation::loss): the largest loss that still passes this spec.
  /// For kRelativeError that is the threshold itself; for kPsnr it is the
  /// peak-normalized RMSE at exactly `threshold` dB. Lets loss-driven
  /// search (AccuracyTuner, serve::build_qos_table) compare any spec kind
  /// on one axis.
  [[nodiscard]] double loss_threshold() const;
};

struct QosEvaluation {
  double metric = 0.0;  ///< PSNR dB or avg relative error.
  /// Normalized quality loss, comparable across kinds: for relative error
  /// this is the error itself; for PSNR it is the MSE-derived normalized
  /// error (so lower is always better and 0 means identical).
  double loss = 0.0;
  bool acceptable = false;
};

/// Evaluate a test output against the golden output under `spec`.
[[nodiscard]] QosEvaluation evaluate_qos(const QosSpec& spec,
                                         std::span<const double> golden,
                                         std::span<const double> test);

[[nodiscard]] std::string to_string(QosKind kind);

}  // namespace apim::quality
