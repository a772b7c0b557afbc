#include "apps/signal_kernels.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "apps/parallel.hpp"
#include "util/rng.hpp"

namespace apim::apps {

namespace {

constexpr util::FixedPointFormat kQ16_16f{16, 16};

/// Exact sign-magnitude fixed-point multiply with truncation toward zero —
/// the golden twin of ApimDevice::mul (same rounding, exact arithmetic).
std::int64_t golden_qmul(std::int64_t a, std::int64_t b, unsigned frac_bits) {
  const bool negative = (a < 0) != (b < 0);
  const std::uint64_t mag = (static_cast<std::uint64_t>(std::llabs(a)) *
                             static_cast<std::uint64_t>(std::llabs(b))) >>
                            frac_bits;
  const auto m = static_cast<std::int64_t>(mag);
  return negative ? -m : m;
}

/// Bit-reversal permutation (shared by both FFT paths).
void bit_reverse(std::vector<std::int64_t>& re, std::vector<std::int64_t>& im) {
  const std::size_t n = re.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
}

struct Twiddle {
  std::int64_t re;
  std::int64_t im;
};

/// Q16 twiddles of an n-point transform's last stage, angle index
/// k = 0..n/2-1. The len-point stage's twiddle j is entry j * (n / len):
/// scaling k and n by the same power of two leaves the angle's double,
/// and so the twiddle, unchanged.
std::vector<Twiddle> twiddles_q16(std::size_t n) {
  std::vector<Twiddle> table(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    table[k] = {
        static_cast<std::int64_t>(std::llround(std::cos(angle) * 65536.0)),
        static_cast<std::int64_t>(std::llround(std::sin(angle) * 65536.0))};
  }
  return table;
}

std::size_t floor_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

// -------------------------------------------------------------------- FFT --

void FftApp::generate(std::size_t elements, std::uint64_t seed) {
  const std::size_t n = floor_pow2(std::max<std::size_t>(elements, 8));
  util::Xoshiro256 rng(seed);
  signal_re_.assign(n, 0);
  signal_im_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    signal_re_[i] = static_cast<std::int64_t>(
        std::llround(rng.next_double_in(-0.9, 0.9) * (kScale - 1)));
    signal_im_[i] = static_cast<std::int64_t>(
        std::llround(rng.next_double_in(-0.9, 0.9) * (kScale - 1)));
  }
}

std::vector<double> FftApp::run_golden() const {
  std::vector<std::int64_t> re = signal_re_;
  std::vector<std::int64_t> im = signal_im_;
  const std::size_t n = re.size();
  bit_reverse(re, im);
  const std::vector<Twiddle> twiddles = twiddles_q16(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Twiddle w = twiddles[j * (n / len)];
        const std::size_t ai = base + j;
        const std::size_t bi = base + j + len / 2;
        const std::int64_t t_re = golden_qmul(w.re, re[bi], 16) -
                                  golden_qmul(w.im, im[bi], 16);
        const std::int64_t t_im = golden_qmul(w.re, im[bi], 16) +
                                  golden_qmul(w.im, re[bi], 16);
        // Per-stage halving (free shifts) prevents fixed-point overflow.
        const std::int64_t a_re = re[ai], a_im = im[ai];
        re[ai] = (a_re + t_re) >> 1;
        im[ai] = (a_im + t_im) >> 1;
        re[bi] = (a_re - t_re) >> 1;
        im[bi] = (a_im - t_im) >> 1;
      }
    }
  }
  std::vector<double> out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(re[i]) / kScale);
    out.push_back(static_cast<double>(im[i]) / kScale);
  }
  return out;
}

std::vector<double> FftApp::run_apim(core::ApimDevice& device) const {
  std::vector<std::int64_t> re = signal_re_;
  std::vector<std::int64_t> im = signal_im_;
  const std::size_t n = re.size();
  bit_reverse(re, im);
  const std::vector<Twiddle> twiddles = twiddles_q16(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Twiddle w = twiddles[j * (n / len)];
        const std::size_t ai = base + j;
        const std::size_t bi = base + j + len / 2;
        // One device op per statement, in a fixed order (see
        // SobelApp::run_apim).
        const std::int64_t wi_im = device.mul(w.im, im[bi], kQ16_16f);
        const std::int64_t wr_re = device.mul(w.re, re[bi], kQ16_16f);
        const std::int64_t t_re = device.add(wr_re, -wi_im);
        const std::int64_t wi_re = device.mul(w.im, re[bi], kQ16_16f);
        const std::int64_t wr_im = device.mul(w.re, im[bi], kQ16_16f);
        const std::int64_t t_im = device.add(wr_im, wi_re);
        const std::int64_t a_re = re[ai], a_im = im[ai];
        re[ai] = device.add(a_re, t_re) >> 1;
        im[ai] = device.add(a_im, t_im) >> 1;
        re[bi] = device.add(a_re, -t_re) >> 1;
        im[bi] = device.add(a_im, -t_im) >> 1;
      }
    }
  }
  std::vector<double> out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(re[i]) / kScale);
    out.push_back(static_cast<double>(im[i]) / kScale);
  }
  return out;
}

// -------------------------------------------------------------- DwtHaar1D --

void DwtHaarApp::generate(std::size_t elements, std::uint64_t seed) {
  const std::size_t n = floor_pow2(std::max<std::size_t>(elements, 8));
  util::Xoshiro256 rng(seed);
  signal_.assign(n, 0);
  // Smooth-ish signal: random walk clipped to [-1, 1), the regime wavelet
  // compression targets.
  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    value = std::clamp(value + rng.next_double_in(-0.1, 0.1), -0.999, 0.999);
    signal_[i] = static_cast<std::int64_t>(std::llround(value * (kScale - 1)));
  }
}

std::vector<double> DwtHaarApp::run_golden() const {
  std::vector<std::int64_t> approx = signal_;
  std::vector<double> details;
  details.reserve(signal_.size());
  while (approx.size() > 1) {
    std::vector<std::int64_t> next(approx.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      const std::int64_t sum = approx[2 * i] + approx[2 * i + 1];
      const std::int64_t diff = approx[2 * i] - approx[2 * i + 1];
      next[i] = golden_qmul(sum, kInvSqrt2, 16);
      details.push_back(static_cast<double>(golden_qmul(diff, kInvSqrt2, 16)) /
                        kScale);
    }
    approx = std::move(next);
  }
  std::vector<double> out;
  out.reserve(details.size() + 1);
  out.push_back(static_cast<double>(approx[0]) / kScale);
  out.insert(out.end(), details.begin(), details.end());
  return out;
}

std::vector<double> DwtHaarApp::run_apim(core::ApimDevice& device) const {
  std::vector<std::int64_t> approx = signal_;
  std::vector<double> details;
  details.reserve(signal_.size());
  while (approx.size() > 1) {
    std::vector<std::int64_t> next(approx.size() / 2);
    for (std::size_t i = 0; i < next.size(); ++i) {
      const std::int64_t sum = device.add(approx[2 * i], approx[2 * i + 1]);
      const std::int64_t diff = device.add(approx[2 * i], -approx[2 * i + 1]);
      next[i] = device.mul(sum, kInvSqrt2, kQ16_16f);
      details.push_back(
          static_cast<double>(device.mul(diff, kInvSqrt2, kQ16_16f)) / kScale);
    }
    approx = std::move(next);
  }
  std::vector<double> out;
  out.reserve(details.size() + 1);
  out.push_back(static_cast<double>(approx[0]) / kScale);
  out.insert(out.end(), details.begin(), details.end());
  return out;
}

// ------------------------------------------------------------- QuasiRandom --

void QuasiRandomApp::generate(std::size_t elements, std::uint64_t seed) {
  count_ = std::max<std::size_t>(elements, 8);
  // Van-der-Corput style low-discrepancy points in Q16, randomized by a
  // seed-dependent XOR scramble (deterministic per seed).
  util::Xoshiro256 rng(seed);
  const std::uint64_t scramble = rng.next_below(kScale);
  points_.assign(count_, 0);
  for (std::size_t i = 0; i < count_; ++i) {
    std::uint64_t bits = 0;
    std::uint64_t v = i + 1;
    for (int b = 15; b >= 0 && v; --b, v >>= 1) bits |= (v & 1) << b;
    points_[i] = static_cast<std::int64_t>(bits ^ scramble);
  }
}

std::vector<double> QuasiRandomApp::run_golden() const {
  // out_i = frac(x_i * c + d): the low 16 bits of the integer product (the
  // classic multiplicative scramble), plus the dimension offset, mod 1.
  std::vector<double> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const std::int64_t product = points_[i] * kMultiplier;
    out.push_back(
        static_cast<double>((product + kOffset) & (kScale - 1)) / kScale);
  }
  return out;
}

std::vector<double> QuasiRandomApp::run_apim(core::ApimDevice& device) const {
  // Points are independent (unlike the FFT butterflies and DWT levels
  // above, which carry cross-element dependences and stay serial).
  return parallel_map(
      device, count_, [&](core::ApimDevice& dev, std::size_t i) {
        const std::int64_t product = dev.mul_int(points_[i], kMultiplier);
        return static_cast<double>(dev.add(product, kOffset) &
                                   (kScale - 1)) /
               kScale;
      });
}

// --------------------------------------------------------------- registry --

}  // namespace apim::apps
