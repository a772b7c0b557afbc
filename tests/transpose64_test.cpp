// Direct unit tests for arith::transpose64, the 64x64 bit-matrix
// transpose the end-to-end benchmark still times (no device path uses it;
// it retires with the slice shims of arith/bitsliced.hpp). These tests pin
// the transpose itself: the defining bit property, self-inverse round
// trips, ragged (<64-lane) inputs, and single-bit planes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "arith/bitsliced.hpp"
#include "util/rng.hpp"

namespace {

using apim::arith::transpose64;

void fill_random(std::uint64_t m[64], apim::util::Xoshiro256& rng,
                 std::size_t lanes = 64) {
  for (std::size_t i = 0; i < 64; ++i) m[i] = i < lanes ? rng.next() : 0;
}

TEST(Transpose64, DefiningBitProperty) {
  apim::util::Xoshiro256 rng(0x7a05);
  for (int iter = 0; iter < 20; ++iter) {
    std::uint64_t in[64], out[64];
    fill_random(in, rng);
    transpose64(in, out);
    for (std::size_t i = 0; i < 64; ++i)
      for (std::size_t l = 0; l < 64; ++l)
        ASSERT_EQ((out[l] >> i) & 1, (in[i] >> l) & 1)
            << "row " << i << " bit " << l;
  }
}

TEST(Transpose64, RoundTripIsIdentity) {
  apim::util::Xoshiro256 rng(0x0707);
  for (int iter = 0; iter < 50; ++iter) {
    std::uint64_t in[64], mid[64], back[64];
    fill_random(in, rng);
    transpose64(in, mid);
    transpose64(mid, back);
    ASSERT_EQ(0, std::memcmp(in, back, sizeof(in)));
  }
}

// Ragged slices: only the first `lanes` rows carry data (a short tail
// padded with zero rows). The transposed planes must confine their
// bits to the low `lanes` positions, and the round trip must hold.
TEST(Transpose64, RaggedLaneCounts) {
  apim::util::Xoshiro256 rng(0x4a99ed);
  for (const std::size_t lanes : {1u, 2u, 7u, 31u, 33u, 63u}) {
    std::uint64_t in[64], planes[64], back[64];
    fill_random(in, rng, lanes);
    transpose64(in, planes);
    const std::uint64_t lane_mask =
        lanes == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << lanes) - 1;
    for (std::size_t b = 0; b < 64; ++b)
      ASSERT_EQ(planes[b] & ~lane_mask, 0u)
          << "plane " << b << " has bits beyond lane " << lanes;
    transpose64(planes, back);
    ASSERT_EQ(0, std::memcmp(in, back, sizeof(in)));
  }
}

TEST(Transpose64, SingleBitPlanes) {
  // One set bit at (row i, bit l) lands at exactly (row l, bit i).
  for (const std::size_t i : {0u, 1u, 13u, 63u}) {
    for (const std::size_t l : {0u, 7u, 62u, 63u}) {
      std::uint64_t in[64] = {};
      std::uint64_t out[64];
      in[i] = std::uint64_t{1} << l;
      transpose64(in, out);
      for (std::size_t r = 0; r < 64; ++r)
        ASSERT_EQ(out[r], r == l ? std::uint64_t{1} << i : 0u)
            << "source (" << i << "," << l << ") row " << r;
    }
  }
}

TEST(Transpose64, DiagonalIsFixedPoint) {
  std::uint64_t in[64], out[64];
  for (std::size_t i = 0; i < 64; ++i) in[i] = std::uint64_t{1} << i;
  transpose64(in, out);
  ASSERT_EQ(0, std::memcmp(in, out, sizeof(in)));
}

}  // namespace
