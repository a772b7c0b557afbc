// Load-generator tests: seeded reproducibility, Poisson arrival
// statistics, and independence of per-tenant RNG streams (via the
// scenario harness in tests/serve_harness.hpp).
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/load_gen.hpp"
#include "serve_harness.hpp"

namespace {

using namespace apim;
using serve::LoadGenConfig;
using serve::Request;
using serve_harness::Scenario;
using serve_harness::TenantSpec;

LoadGenConfig reference_config() {
  LoadGenConfig gen;
  gen.requests = 300;
  gen.rate_per_kcycle = 8.0;
  gen.seed = 4242;
  gen.apps = {"alpha", "beta"};
  gen.min_ops = 2;
  gen.max_ops = 10;
  gen.width = 16;
  gen.add_fraction = 0.25;
  gen.deadline = 5000;
  return gen;
}

void expect_identical(const Request& a, const Request& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.operands, b.operands);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.deadline, b.deadline);
}

/// FNV-1a over every field of every request, in trace order.
std::uint64_t trace_digest(const std::vector<Request>& trace) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  };
  mix(trace.size());
  for (const Request& r : trace) {
    mix(r.app.size());
    for (const char c : r.app) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(r.op));
    mix(r.width);
    mix(r.operands.size());
    for (const auto& [x, y] : r.operands) {
      mix(x);
      mix(y);
    }
    mix(r.arrival);
    mix(r.deadline);
    mix(static_cast<std::uint64_t>(r.policy));
  }
  return h;
}

// The traces are pinned field by field, so a change to any draw, or to
// the order of the draws, fails here on every compiler.
TEST(LoadGen, TraceDigestIsPinned) {
  EXPECT_EQ(trace_digest(serve::make_open_loop_trace(reference_config())),
            0x4D384406E2AA66A1ull);

  // One op per request skips the op-count draw; sixteen apps widen the
  // app draw.
  LoadGenConfig one_op = reference_config();
  one_op.min_ops = 1;
  one_op.max_ops = 1;
  one_op.apps.clear();
  for (char c = 'a'; c < 'a' + 16; ++c) one_op.apps.emplace_back(3, c);
  one_op.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  EXPECT_EQ(trace_digest(serve::make_open_loop_trace(one_op)),
            0xB287BA0B99C8479Full);
}

TEST(LoadGen, SameSeedSameTrace) {
  const auto a = serve::make_open_loop_trace(reference_config());
  const auto b = serve::make_open_loop_trace(reference_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(LoadGen, DifferentSeedDifferentTrace) {
  const auto a = serve::make_open_loop_trace(reference_config());
  LoadGenConfig other = reference_config();
  other.seed = 4243;
  const auto b = serve::make_open_loop_trace(other);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i)
    any_difference = a[i].arrival != b[i].arrival ||
                     a[i].operands != b[i].operands;
  EXPECT_TRUE(any_difference);
}

/// A zero, negative or non-finite rate, an empty op range or an inverted
/// one is refused in every build type (a zero rate used to cast an
/// infinite clock to util::Cycles in Release).
TEST(LoadGen, RejectsInvalidConfig) {
  const auto with = [](auto set) {
    LoadGenConfig gen = reference_config();
    set(gen);
    return gen;
  };
  using Cfg = LoadGenConfig;
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)serve::make_open_loop_trace(
                     with([rate](Cfg& g) { g.rate_per_kcycle = rate; })),
                 std::invalid_argument)
        << "rate " << rate;
  }
  EXPECT_THROW((void)serve::make_open_loop_trace(with([](Cfg& g) {
                 g.min_ops = 0;
                 g.max_ops = 4;
               })),
               std::invalid_argument);
  EXPECT_THROW((void)serve::make_open_loop_trace(with([](Cfg& g) {
                 g.min_ops = 5;
                 g.max_ops = 4;
               })),
               std::invalid_argument);
  // The edges of the valid ranges still generate.
  EXPECT_NO_THROW((void)serve::make_open_loop_trace(with([](Cfg& g) {
    g.rate_per_kcycle = 1e-6;
    g.min_ops = 1;
    g.max_ops = 1;
  })));
}

TEST(LoadGen, TraceRespectsConfiguredShapes) {
  const LoadGenConfig gen = reference_config();
  for (const Request& r : serve::make_open_loop_trace(gen)) {
    EXPECT_EQ(r.width, gen.width);
    EXPECT_EQ(r.deadline, gen.deadline);
    EXPECT_GE(r.operands.size(), gen.min_ops);
    EXPECT_LE(r.operands.size(), gen.max_ops);
    EXPECT_TRUE(r.app == "alpha" || r.app == "beta");
    for (const auto& [x, y] : r.operands) {
      EXPECT_LT(x, 1ull << gen.width);
      EXPECT_LT(y, 1ull << gen.width);
    }
  }
}

TEST(LoadGen, ArrivalsAreSortedAndPoissonPaced) {
  LoadGenConfig gen = reference_config();
  gen.requests = 4000;
  gen.rate_per_kcycle = 5.0;  // Mean inter-arrival gap: 200 cycles.
  const auto trace = serve::make_open_loop_trace(gen);
  double mean_gap = 0.0;
  double mean_gap_sq = 0.0;
  util::Cycles prev = 0;
  for (const Request& r : trace) {
    ASSERT_GE(r.arrival, prev);
    const double gap = static_cast<double>(r.arrival - prev);
    mean_gap += gap;
    mean_gap_sq += gap * gap;
    prev = r.arrival;
  }
  mean_gap /= static_cast<double>(trace.size());
  mean_gap_sq /= static_cast<double>(trace.size());
  // Sample mean within 10% of 1/rate, and an exponential's signature
  // stddev ~= mean (coefficient of variation near one) — a deterministic
  // check at this seed, a distribution check in spirit.
  EXPECT_NEAR(mean_gap, 200.0, 20.0);
  const double stddev = std::sqrt(mean_gap_sq - mean_gap * mean_gap);
  EXPECT_NEAR(stddev / mean_gap, 1.0, 0.15);
}

TEST(LoadGen, TenantStreamsAreIndependent) {
  // Each tenant's trace in a merged scenario is drawn from its own RNG
  // stream: adding or reordering tenants must not perturb another
  // tenant's arrivals or operands.
  TenantSpec a;
  a.name = "alpha";
  a.requests = 120;
  a.rate_per_kcycle = 6.0;
  TenantSpec b = a;
  b.name = "beta";
  b.rate_per_kcycle = 11.0;

  const std::uint64_t seed = 77;
  EXPECT_NE(serve_harness::tenant_seed(seed, "alpha"),
            serve_harness::tenant_seed(seed, "beta"));

  const auto solo = serve_harness::tenant_trace(a, seed);
  Scenario both;
  both.seed = seed;
  both.tenants = {b, a};  // Reordered on purpose.
  std::vector<Request> alpha_part;
  for (Request& r : serve_harness::merged_trace(both))
    if (r.app == "alpha") alpha_part.push_back(std::move(r));
  ASSERT_EQ(alpha_part.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i)
    expect_identical(solo[i], alpha_part[i]);
}

}  // namespace
