// Tests of the ApimDevice backend switch: the bit-level MAGIC engine and
// the fast functional models must be interchangeable behind the device
// API — identical values and ExecStats, all the way up to whole
// applications.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/apim.hpp"
#include "util/rng.hpp"

namespace apim::core {
namespace {

ApimDevice make_device(Backend backend, unsigned relax = 0) {
  ApimConfig cfg;
  cfg.backend = backend;
  cfg.approx.relax_bits = relax;
  return ApimDevice{cfg};
}

TEST(Backend, SingleOpsAgreeExactly) {
  util::Xoshiro256 rng(91);
  for (unsigned relax : {0u, 8u, 24u, 32u}) {
    ApimDevice fast = make_device(Backend::kFast, relax);
    ApimDevice bit = make_device(Backend::kBitLevel, relax);
    for (int t = 0; t < 10; ++t) {
      const auto a = static_cast<std::int64_t>(rng.next_below(1u << 20));
      const auto b = static_cast<std::int64_t>(rng.next_below(1u << 20));
      ASSERT_EQ(fast.mul_int(a, b), bit.mul_int(a, b))
          << "relax=" << relax;
      ASSERT_EQ(fast.add(a, b), bit.add(a, b));
      ASSERT_EQ(fast.add(a, -b), bit.add(a, -b));
    }
    // Both levels count the same events and partial products, and the
    // device prices each op once, so every stat is equal, the energy
    // doubles included.
    ASSERT_EQ(fast.stats(), bit.stats()) << "relax=" << relax;
    ASSERT_GT(bit.stats().partial_products, 0u);
  }
}

TEST(Backend, WholeApplicationAgreesOnBothLevels) {
  // A small Robert run (the lightest image kernel): every multiply and add
  // of the application executes NOR-by-NOR on crossbar cells in the
  // bit-level device, and must reproduce the fast path bit for bit.
  auto app = apps::make_application("Robert");
  app->generate(16 * 16, 2017);

  ApimDevice fast = make_device(Backend::kFast, /*relax=*/16);
  ApimDevice bit = make_device(Backend::kBitLevel, /*relax=*/16);
  const auto fast_out = app->run_apim(fast);
  const auto bit_out = app->run_apim(bit);
  ASSERT_EQ(fast_out.size(), bit_out.size());
  for (std::size_t i = 0; i < fast_out.size(); ++i)
    ASSERT_DOUBLE_EQ(fast_out[i], bit_out[i]) << i;
  EXPECT_EQ(fast.stats(), bit.stats());
  EXPECT_GT(bit.stats().partial_products, 0u);
}

TEST(Backend, DefaultIsFast) {
  EXPECT_EQ(ApimConfig{}.backend, Backend::kFast);
}

}  // namespace
}  // namespace apim::core
