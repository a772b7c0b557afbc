#include "apps/image_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "apps/parallel.hpp"

namespace apim::apps {

namespace {

// Pixels are promoted to Q8 (value << 8) before processing, as the OpenCL
// kernels do when normalizing 8-bit channels into fixed-point registers.
// The +-1/+-2 convolution taps are strength-reduced to additions (as any
// OpenCL compiler folds them); the genuine multiplies are the gradient
// squarings and the sharpening gain — large-operand products that exercise
// the APIM multiplier's relaxed final stage.
constexpr unsigned kPixelShift = 8;

// Gradient energies are normalized to 8 bits by pure (free) shifts:
// e_max(Sobel)  = 2*(4*255*256)^2 ~ 2^37 -> >>29 maps to ~255.
// e_max(Robert) = 2*(255*256)^2   ~ 2^33 -> >>25.
constexpr unsigned kSobelEnergyShift = 29;
constexpr unsigned kRobertEnergyShift = 25;

// Sharpen gain alpha = 1.5 in Q8.
constexpr std::int64_t kSharpenAlphaQ8 = 384;

double clamp255(double v) { return std::clamp(v, 0.0, 255.0); }

}  // namespace

void ImageApplication::generate(std::size_t elements, std::uint64_t seed) {
  const auto side = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(std::sqrt(
             static_cast<double>(elements)))));
  input_ = util::make_synthetic_image(side, side, seed);
}

// ------------------------------------------------------------------ Sobel --

std::vector<double> SobelApp::run_golden() const {
  const util::Image& img = input();
  std::vector<double> out;
  out.reserve(img.pixel_count());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const auto q = [&](int dx, int dy) -> std::int64_t {
        return static_cast<std::int64_t>(
                   img.at_clamped(static_cast<std::int64_t>(x) + dx,
                                  static_cast<std::int64_t>(y) + dy))
               << kPixelShift;
      };
      const std::int64_t gx =
          (q(1, -1) + 2 * q(1, 0) + q(1, 1)) -
          (q(-1, -1) + 2 * q(-1, 0) + q(-1, 1));
      const std::int64_t gy =
          (q(-1, 1) + 2 * q(0, 1) + q(1, 1)) -
          (q(-1, -1) + 2 * q(0, -1) + q(1, -1));
      const std::int64_t energy = gx * gx + gy * gy;
      out.push_back(clamp255(
          static_cast<double>(energy >> kSobelEnergyShift)));
    }
  }
  return out;
}

std::vector<double> SobelApp::run_apim(core::ApimDevice& device) const {
  const util::Image& img = input();
  // Pixels are independent: one parallel_map index per pixel.
  return parallel_map(
      device, img.pixel_count(),
      [&](core::ApimDevice& dev, std::size_t idx) {
        const std::size_t x = idx % img.width();
        const std::size_t y = idx / img.width();
        const auto q = [&](int dx, int dy) -> std::int64_t {
          return static_cast<std::int64_t>(
                     img.at_clamped(static_cast<std::int64_t>(x) + dx,
                                    static_cast<std::int64_t>(y) + dy))
                 << kPixelShift;
        };
        // Taps as additions (x2 = self-add), then one subtraction per axis.
        // One device op per statement: the order of the ops sets the
        // order ExecStats sums their energies in and the op indices fault
        // draws key off, so the source fixes it, not the compiler's
        // argument order.
        const std::int64_t pos_x_corners = dev.add(q(1, -1), q(1, 1));
        const std::int64_t pos_x_mid = dev.add(q(1, 0), q(1, 0));
        const std::int64_t pos_x = dev.add(pos_x_mid, pos_x_corners);
        const std::int64_t neg_x_corners = dev.add(q(-1, -1), q(-1, 1));
        const std::int64_t neg_x_mid = dev.add(q(-1, 0), q(-1, 0));
        const std::int64_t neg_x = dev.add(neg_x_mid, neg_x_corners);
        const std::int64_t gx = dev.add(pos_x, -neg_x);
        const std::int64_t pos_y_corners = dev.add(q(-1, 1), q(1, 1));
        const std::int64_t pos_y_mid = dev.add(q(0, 1), q(0, 1));
        const std::int64_t pos_y = dev.add(pos_y_mid, pos_y_corners);
        const std::int64_t neg_y_corners = dev.add(q(-1, -1), q(1, -1));
        const std::int64_t neg_y_mid = dev.add(q(0, -1), q(0, -1));
        const std::int64_t neg_y = dev.add(neg_y_mid, neg_y_corners);
        const std::int64_t gy = dev.add(pos_y, -neg_y);
        const std::int64_t gy_sq = dev.mul_int(gy, gy);
        const std::int64_t gx_sq = dev.mul_int(gx, gx);
        const std::int64_t energy = dev.add_wide(gx_sq, gy_sq);
        return clamp255(static_cast<double>(energy >> kSobelEnergyShift));
      });
}

// ----------------------------------------------------------------- Robert --

std::vector<double> RobertApp::run_golden() const {
  const util::Image& img = input();
  std::vector<double> out;
  out.reserve(img.pixel_count());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const auto ix = static_cast<std::int64_t>(x);
      const auto iy = static_cast<std::int64_t>(y);
      const std::int64_t gx =
          (static_cast<std::int64_t>(img.at_clamped(ix, iy))
           << kPixelShift) -
          (static_cast<std::int64_t>(img.at_clamped(ix + 1, iy + 1))
           << kPixelShift);
      const std::int64_t gy =
          (static_cast<std::int64_t>(img.at_clamped(ix + 1, iy))
           << kPixelShift) -
          (static_cast<std::int64_t>(img.at_clamped(ix, iy + 1))
           << kPixelShift);
      const std::int64_t energy = gx * gx + gy * gy;
      out.push_back(clamp255(
          static_cast<double>(energy >> kRobertEnergyShift)));
    }
  }
  return out;
}

std::vector<double> RobertApp::run_apim(core::ApimDevice& device) const {
  const util::Image& img = input();
  return parallel_map(
      device, img.pixel_count(),
      [&](core::ApimDevice& dev, std::size_t idx) {
        const auto ix = static_cast<std::int64_t>(idx % img.width());
        const auto iy = static_cast<std::int64_t>(idx / img.width());
        const std::int64_t gx = dev.add(
            static_cast<std::int64_t>(img.at_clamped(ix, iy)) << kPixelShift,
            -(static_cast<std::int64_t>(img.at_clamped(ix + 1, iy + 1))
              << kPixelShift));
        const std::int64_t gy = dev.add(
            static_cast<std::int64_t>(img.at_clamped(ix + 1, iy))
                << kPixelShift,
            -(static_cast<std::int64_t>(img.at_clamped(ix, iy + 1))
              << kPixelShift));
        const std::int64_t gy_sq = dev.mul_int(gy, gy);
        const std::int64_t gx_sq = dev.mul_int(gx, gx);
        const std::int64_t energy = dev.add_wide(gx_sq, gy_sq);
        return clamp255(static_cast<double>(energy >> kRobertEnergyShift));
      });
}

// ---------------------------------------------------------------- Sharpen --

std::vector<double> SharpenApp::run_golden() const {
  const util::Image& img = input();
  std::vector<double> out;
  out.reserve(img.pixel_count());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const auto ix = static_cast<std::int64_t>(x);
      const auto iy = static_cast<std::int64_t>(y);
      const std::int64_t q = static_cast<std::int64_t>(img.at_clamped(ix, iy))
                             << kPixelShift;
      const std::int64_t blur_sum =
          ((static_cast<std::int64_t>(img.at_clamped(ix - 1, iy)) +
            img.at_clamped(ix + 1, iy)) +
           (static_cast<std::int64_t>(img.at_clamped(ix, iy - 1)) +
            img.at_clamped(ix, iy + 1)))
          << kPixelShift;
      const std::int64_t diff = q - (blur_sum >> 2);
      // Truncation toward zero, matching the device's sign-magnitude shift.
      const std::int64_t amp_mag = (std::llabs(kSharpenAlphaQ8 * diff)) >> 8;
      const std::int64_t amp = diff < 0 ? -amp_mag : amp_mag;
      out.push_back(clamp255(static_cast<double>((q + amp) >> kPixelShift)));
    }
  }
  return out;
}

std::vector<double> SharpenApp::run_apim(core::ApimDevice& device) const {
  const util::Image& img = input();
  return parallel_map(
      device, img.pixel_count(),
      [&](core::ApimDevice& dev, std::size_t idx) {
        const auto ix = static_cast<std::int64_t>(idx % img.width());
        const auto iy = static_cast<std::int64_t>(idx / img.width());
        const std::int64_t q =
            static_cast<std::int64_t>(img.at_clamped(ix, iy)) << kPixelShift;
        const auto qn = [&](int dx, int dy) -> std::int64_t {
          return static_cast<std::int64_t>(
                     img.at_clamped(ix + dx, iy + dy))
                 << kPixelShift;
        };
        const std::int64_t vertical = dev.add(qn(0, -1), qn(0, 1));
        const std::int64_t horizontal = dev.add(qn(-1, 0), qn(1, 0));
        const std::int64_t blur_sum = dev.add(horizontal, vertical);
        const std::int64_t diff = dev.add(q, -(blur_sum >> 2));
        // Sign-magnitude multiply then >>8 rescale (truncation toward zero).
        const std::int64_t product = dev.mul_int(kSharpenAlphaQ8, diff);
        const std::int64_t amp =
            product < 0 ? -((-product) >> 8) : (product >> 8);
        const std::int64_t sharp = dev.add(q, amp);
        return clamp255(static_cast<double>(sharp >> kPixelShift));
      });
}

}  // namespace apim::apps
