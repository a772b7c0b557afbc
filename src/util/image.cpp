#include "util/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>

#include "util/rng.hpp"

namespace apim::util {

Image::Image(std::size_t width, std::size_t height, std::uint8_t fill)
    : width_(width), height_(height), pixels_(width * height, fill) {}

std::uint8_t Image::at(std::size_t x, std::size_t y) const {
  assert(x < width_ && y < height_);
  return pixels_[y * width_ + x];
}

void Image::set(std::size_t x, std::size_t y, std::uint8_t value) {
  assert(x < width_ && y < height_);
  pixels_[y * width_ + x] = value;
}

std::uint8_t Image::at_clamped(std::int64_t x, std::int64_t y) const noexcept {
  const auto cx = static_cast<std::size_t>(
      std::clamp<std::int64_t>(x, 0, static_cast<std::int64_t>(width_) - 1));
  const auto cy = static_cast<std::size_t>(
      std::clamp<std::int64_t>(y, 0, static_cast<std::int64_t>(height_) - 1));
  return pixels_[cy * width_ + cx];
}

bool Image::write_pgm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "P5\n" << width_ << ' ' << height_ << "\n255\n";
  out.write(reinterpret_cast<const char*>(pixels_.data()),
            static_cast<std::streamsize>(pixels_.size()));
  return static_cast<bool>(out);
}

namespace {

/// Smooth value noise: bilinear interpolation of a coarse random lattice.
class ValueNoise {
 public:
  ValueNoise(std::size_t cells_x, std::size_t cells_y, std::uint64_t seed)
      : cells_x_(cells_x), cells_y_(cells_y) {
    Xoshiro256 rng(seed);
    lattice_.resize((cells_x + 1) * (cells_y + 1));
    for (auto& v : lattice_) v = rng.next_double();
  }

  [[nodiscard]] double sample(double u, double v) const {
    const double gx = u * static_cast<double>(cells_x_);
    const double gy = v * static_cast<double>(cells_y_);
    const auto x0 = std::min(static_cast<std::size_t>(gx), cells_x_ - 1);
    const auto y0 = std::min(static_cast<std::size_t>(gy), cells_y_ - 1);
    const double fx = gx - static_cast<double>(x0);
    const double fy = gy - static_cast<double>(y0);
    // Smoothstep fade for C1 continuity at cell borders.
    const double sx = fx * fx * (3.0 - 2.0 * fx);
    const double sy = fy * fy * (3.0 - 2.0 * fy);
    const double a = at(x0, y0), b = at(x0 + 1, y0);
    const double c = at(x0, y0 + 1), d = at(x0 + 1, y0 + 1);
    const double top = a + (b - a) * sx;
    const double bot = c + (d - c) * sx;
    return top + (bot - top) * sy;
  }

 private:
  [[nodiscard]] double at(std::size_t x, std::size_t y) const {
    return lattice_[y * (cells_x_ + 1) + x];
  }
  std::size_t cells_x_, cells_y_;
  std::vector<double> lattice_;
};

std::uint8_t to_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

Image make_synthetic_image(std::size_t width, std::size_t height,
                           std::uint64_t seed) {
  assert(width >= 4 && height >= 4);
  Image img(width, height);
  Xoshiro256 rng(seed);
  const ValueNoise coarse(8, 8, rng.next());
  const ValueNoise fine(32, 32, rng.next());

  // Base: diagonal gradient plus two octaves of texture.
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const double u = static_cast<double>(x) / static_cast<double>(width - 1);
      const double v = static_cast<double>(y) / static_cast<double>(height - 1);
      const double gradient = 60.0 + 100.0 * (0.5 * u + 0.5 * v);
      const double texture =
          60.0 * coarse.sample(u, v) + 25.0 * fine.sample(u, v);
      img.set(x, y, to_pixel(gradient + texture - 30.0));
    }
  }

  // Hard-edged rectangles: the strong step edges that exercise Sobel/Robert.
  const int rect_count = 4;
  for (int r = 0; r < rect_count; ++r) {
    const auto x0 = rng.next_below(width - 2);
    const auto y0 = rng.next_below(height - 2);
    const auto w = 1 + rng.next_below(std::max<std::uint64_t>(width / 4, 2));
    const auto h = 1 + rng.next_below(std::max<std::uint64_t>(height / 4, 2));
    const auto level = static_cast<std::uint8_t>(30 + rng.next_below(200));
    for (std::size_t y = y0; y < std::min(height, y0 + h); ++y)
      for (std::size_t x = x0; x < std::min(width, x0 + w); ++x)
        img.set(x, y, level);
  }

  // Discs: curved edges at all orientations.
  const int disc_count = 3;
  for (int d = 0; d < disc_count; ++d) {
    const double cx = rng.next_double() * static_cast<double>(width);
    const double cy = rng.next_double() * static_cast<double>(height);
    const double radius =
        (2.0 + rng.next_double() * static_cast<double>(std::min(width, height)) / 6.0);
    const auto level = static_cast<std::uint8_t>(30 + rng.next_below(200));
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        if (dx * dx + dy * dy <= radius * radius) img.set(x, y, level);
      }
    }
  }
  return img;
}

}  // namespace apim::util
