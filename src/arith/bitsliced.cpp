#include "arith/bitsliced.hpp"

#include <cassert>

namespace apim::arith {

void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept {
  for (unsigned i = 0; i < 64; ++i) out[i] = in[i];
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k] ^= t << j;
      out[k | j] ^= t;
    }
  }
}

void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, const device::EnergyModel& em,
    std::span<AddOutcome> out) {
  assert(n >= 1 && n <= 64);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  for (std::size_t l = 0; l < ops.size(); ++l)
    out[l] = fast_add(ops[l].first, ops[l].second, n, relax_m, em);
}

void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, const device::EnergyModel& em,
    std::span<MultiplyOutcome> out) {
  assert(n >= 1 && n <= 32);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  for (std::size_t l = 0; l < ops.size(); ++l)
    out[l] = fast_multiply(ops[l].first, ops[l].second, n, cfg, em);
}

}  // namespace apim::arith
