// Tests of the adaptive accuracy tuner (paper Section 4.1: start at 32
// relax bits, step down by 4 until QoS is met).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/tuner.hpp"
#include "util/thread_pool.hpp"

namespace apim::core {
namespace {

TEST(Tuner, AcceptsMaxRelaxWhenErrorIsLow) {
  const AccuracyTuner tuner;
  const TunerResult r = tuner.tune([](unsigned) { return 0.01; }, 0.10);
  EXPECT_TRUE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 32u);
  EXPECT_EQ(r.history.size(), 1u);
}

TEST(Tuner, StepsDownInFours) {
  // Error model: acceptable only at m <= 20.
  const AccuracyTuner tuner;
  const TunerResult r = tuner.tune(
      [](unsigned m) { return m > 20 ? 0.5 : 0.05; }, 0.10);
  EXPECT_TRUE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 20u);
  std::vector<unsigned> visited;
  for (const TunerStep& s : r.history) visited.push_back(s.relax_bits);
  EXPECT_EQ(visited, (std::vector<unsigned>{32, 28, 24, 20}));
}

TEST(Tuner, FallsBackToExact) {
  const AccuracyTuner tuner;
  const TunerResult r = tuner.tune(
      [](unsigned m) { return m == 0 ? 0.0 : 1.0; }, 0.10);
  EXPECT_TRUE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 0u);
  EXPECT_EQ(r.history.size(), 9u);  // 32,28,...,4,0.
}

TEST(Tuner, ReportsFailureWhenEvenExactMisses) {
  const AccuracyTuner tuner;
  const TunerResult r = tuner.tune([](unsigned) { return 1.0; }, 0.10);
  EXPECT_FALSE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 0u);
}

TEST(Tuner, MonotoneErrorPicksLargestAcceptable) {
  // With monotone error in m, the first acceptable m encountered while
  // stepping down is the largest acceptable multiple of the step size.
  const AccuracyTuner tuner;
  const auto error = [](unsigned m) { return 0.004 * m; };
  const TunerResult r = tuner.tune(error, 0.10);
  EXPECT_TRUE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 24u);  // 0.004*24 = 0.096 <= 0.1 < 0.112.
}

TEST(Tuner, CustomStartAndStep) {
  const AccuracyTuner tuner(16, 8);
  const TunerResult r = tuner.tune(
      [](unsigned m) { return m >= 9 ? 1.0 : 0.0; }, 0.5);
  EXPECT_TRUE(r.met_qos);
  EXPECT_EQ(r.relax_bits, 8u);
  std::vector<unsigned> visited;
  for (const TunerStep& s : r.history) visited.push_back(s.relax_bits);
  EXPECT_EQ(visited, (std::vector<unsigned>{16, 8}));
}

TEST(Tuner, RejectsZeroStep) {
  // Step 0 would repeat max_relax forever; refused in every build type.
  EXPECT_THROW(AccuracyTuner(32, 0), std::invalid_argument);
  EXPECT_THROW(AccuracyTuner(0, 0), std::invalid_argument);
  EXPECT_EQ(AccuracyTuner(32, 1).relax_candidates().size(), 33u);
}

TEST(Tuner, HistoryRecordsAcceptability) {
  const AccuracyTuner tuner;
  const TunerResult r = tuner.tune(
      [](unsigned m) { return m > 28 ? 0.2 : 0.01; }, 0.10);
  ASSERT_EQ(r.history.size(), 2u);
  EXPECT_FALSE(r.history[0].acceptable);
  EXPECT_TRUE(r.history[1].acceptable);
}

// A wave of 4 evaluates 32, 28, 24 and 20 at once, but the walk stops at
// the first acceptable setting: the result and its history are the serial
// walk's, and a setting past it that throws is never reached.
TEST(Tuner, WavesKeepNothingPastTheFirstAcceptable) {
  struct RestoreThreads {
    ~RestoreThreads() { util::set_thread_count(0); }
  } restore;
  const AccuracyTuner tuner;
  for (const std::size_t threads : {1u, 4u}) {
    util::set_thread_count(threads);
    const TunerResult r = tuner.tune(
        [](unsigned m) {
          if (m < 28) throw std::runtime_error("past the accepted setting");
          return m > 28 ? 0.5 : 0.05;
        },
        0.10);
    EXPECT_TRUE(r.met_qos) << threads << " threads";
    EXPECT_EQ(r.relax_bits, 28u) << threads << " threads";
    EXPECT_EQ(r.error, 0.05) << threads << " threads";
    std::vector<unsigned> visited;
    for (const TunerStep& s : r.history) visited.push_back(s.relax_bits);
    EXPECT_EQ(visited, (std::vector<unsigned>{32, 28})) << threads
                                                        << " threads";
    // A setting the walk does reach still throws.
    EXPECT_THROW((void)tuner.tune(
                     [](unsigned m) -> double {
                       if (m == 28) throw std::runtime_error("reached");
                       return 1.0;
                     },
                     0.10),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace apim::core
