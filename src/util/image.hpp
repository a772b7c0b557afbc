// Grayscale images and deterministic synthetic image generation.
//
// The paper evaluates the image kernels (Sobel, Robert, Sharpen) on random
// Caltech-101 photographs. That dataset is not available offline, so we
// substitute deterministic synthetic images that mix smooth gradients,
// hard-edged shapes, and band-limited texture noise — the three feature
// classes that drive edge-detector behaviour (see DESIGN.md, substitution
// table). Generation is seeded and reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apim::util {

/// Row-major 8-bit grayscale image.
class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, std::uint8_t fill = 0);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return width_ * height_;
  }

  [[nodiscard]] std::uint8_t at(std::size_t x, std::size_t y) const;
  void set(std::size_t x, std::size_t y, std::uint8_t value);

  /// Clamped access: coordinates outside the image are clamped to the
  /// border, the usual convolution boundary rule.
  [[nodiscard]] std::uint8_t at_clamped(std::int64_t x, std::int64_t y) const noexcept;

  [[nodiscard]] const std::vector<std::uint8_t>& pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::vector<std::uint8_t>& pixels() noexcept { return pixels_; }

  /// Write a binary PGM (P5). Returns false on I/O failure.
  bool write_pgm(const std::string& path) const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Deterministic stand-in for a natural photograph: diagonal luminance
/// gradient + rectangles and discs (hard edges) + value-noise texture.
[[nodiscard]] Image make_synthetic_image(std::size_t width, std::size_t height,
                                         std::uint64_t seed);

}  // namespace apim::util
