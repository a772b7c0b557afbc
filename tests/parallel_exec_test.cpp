// Tests for the host-side thread pool (util/thread_pool.hpp), the
// bit-exactness contract of every parallelized path, and the lane-makespan
// model of the served batch executor (serve::execute_batch). Products,
// cycles and energy must be IDENTICAL (not merely close) for any host
// thread count, because chunk boundaries and merge order depend only on
// the problem size, never on the worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "arith/vector_unit.hpp"
#include "core/apim.hpp"
#include "device/energy_model.hpp"
#include "digest.hpp"
#include "energy_counts_print.hpp"
#include "reliability/campaign.hpp"
#include "serve/executor.hpp"
#include "serve/qos_table.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apim {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

/// Restores the default thread-pool configuration on scope exit so a
/// failing test cannot leak its override into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(0, kCount, /*grain=*/64, [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ran = true; });
  pool.parallel_for(7, 3, 8, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk) {
  util::ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(2, 9, /*grain=*/100, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 9u);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 10,
                        [&](std::size_t lo, std::size_t) {
                          if (lo >= 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a thrown body and remains usable.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, 10, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  // A nested call from inside a worker must not deadlock on the pool.
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    util::ThreadPool::global().parallel_for(
        0, 10, 2, [&](std::size_t lo, std::size_t hi) {
          inner_total.fetch_add(hi - lo);
        });
  });
  EXPECT_EQ(inner_total.load(), 80u);

  // The same pool nested in itself. The two outer chunks wait for each
  // other, so each of the two executors runs one: the calling thread's
  // nested call must run inline as well as the worker's. The call runs on
  // a driver thread under a watchdog, so a deadlock fails the test instead
  // of hanging it.
  const ThreadCountGuard guard;
  util::set_thread_count(2);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> nested_total{0};
  std::atomic<bool> caller_nested{false};
  std::promise<void> done;
  std::thread driver([&] {
    const std::thread::id caller = std::this_thread::get_id();
    util::ThreadPool& global = util::ThreadPool::global();
    global.parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
      global.parallel_for(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
        nested_total.fetch_add(hi - lo);
      });
      if (std::this_thread::get_id() == caller) caller_nested = true;
    });
    done.set_value();
  });
  if (done.get_future().wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "a nested parallel_for on the calling thread deadlocked";
    std::fflush(nullptr);
    std::_Exit(1);  // The driver is stuck holding the pool; end the process.
  }
  driver.join();
  EXPECT_EQ(nested_total.load(), 8u);
  EXPECT_TRUE(caller_nested.load());
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;  // No mutex: serial execution expected.
  pool.parallel_for(0, 100, 7, [&](std::size_t lo, std::size_t) {
    order.push_back(lo);
  });
  ASSERT_FALSE(order.empty());
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]);
}

TEST(ThreadPool, SetThreadCountReconfiguresGlobalPool) {
  const ThreadCountGuard guard;
  util::set_thread_count(3);
  EXPECT_EQ(util::configured_thread_count(), 3u);
  EXPECT_EQ(util::ThreadPool::global().size(), 3u);
  util::set_thread_count(0);
  EXPECT_GE(util::configured_thread_count(), 1u);
}

TEST(ThreadPool, SetThreadCountRejectsAboveMaximum) {
  // Only the configured count is read: no pool of that size is built.
  const ThreadCountGuard guard;
  util::set_thread_count(util::kMaxThreads);
  EXPECT_EQ(util::configured_thread_count(), util::kMaxThreads);
  util::set_thread_count(2);
  EXPECT_THROW(util::set_thread_count(util::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_THROW(util::set_thread_count(~std::size_t{0}), std::invalid_argument);
  EXPECT_EQ(util::configured_thread_count(), 2u);
}

// -------------------------------------------- bit-exactness properties --

/// The thread counts the determinism properties sweep: serial, even split,
/// and a count that does not divide typical chunk counts.
constexpr std::size_t kThreadSweep[] = {1, 2, 7};

using OpPair = std::pair<std::uint64_t, std::uint64_t>;

std::vector<OpPair> random_pairs(std::size_t count, unsigned n,
                                 std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<OpPair> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));
  return out;
}

/// `ops` as one single-member multiply dispatch of width `n` and relax
/// `relax_bits` on a `lanes`-lane stream, through the served executor.
serve::BatchExecution execute_multiplies(
    const std::vector<OpPair>& ops, unsigned n, std::size_t lanes,
    core::Backend backend = core::Backend::kFast, unsigned relax_bits = 0) {
  core::ApimConfig base;
  base.backend = backend;
  serve::BatchKey key;
  key.width = n;
  key.relax_bits = relax_bits;
  const std::span<const OpPair> member(ops);
  return serve::execute_batch(std::span(&member, 1), key, lanes, base);
}

/// Makespan inflation over the balanced-load ideal total / lanes (what
/// ApimDevice::elapsed_seconds assumes); 1.0 = perfectly balanced.
double imbalance(const serve::BatchExecution& b) {
  if (b.lanes_used == 0 || b.total_lane_cycles == 0) return 1.0;
  return static_cast<double>(b.makespan) * static_cast<double>(b.lanes_used) /
         static_cast<double>(b.total_lane_cycles);
}

TEST(ParallelDeterminism, FastMultiplyBatchBitExact) {
  // 2000 ops: 31 full 64-op executor chunks and a ragged 16-op tail, on
  // both host tiers, for every thread count.
  const ThreadCountGuard guard;
  const auto pairs = random_pairs(2000, 32, 901);

  util::set_thread_count(1);
  const serve::BatchExecution ref = execute_multiplies(pairs, 32, 64);

  for (const core::Backend backend :
       {core::Backend::kFast, core::Backend::kBitsliced}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    for (std::size_t threads : kThreadSweep) {
      util::set_thread_count(threads);
      const serve::BatchExecution got =
          execute_multiplies(pairs, 32, 64, backend);
      EXPECT_EQ(got.values, ref.values) << "threads=" << threads;
      EXPECT_EQ(got.makespan, ref.makespan) << "threads=" << threads;
      EXPECT_EQ(got.total_lane_cycles, ref.total_lane_cycles)
          << "threads=" << threads;
      EXPECT_EQ(got.lanes_used, ref.lanes_used) << "threads=" << threads;
      // Bit-exact FP equality, not NEAR: the merge order is fixed.
      EXPECT_EQ(got.energy_pj, ref.energy_pj) << "threads=" << threads;
      EXPECT_EQ(got.stats, ref.stats) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, FastVectorAddBitExact) {
  const ThreadCountGuard guard;
  util::Xoshiro256 rng(902);
  constexpr std::size_t kCount = 3000;
  std::vector<std::uint64_t> a(kCount), b(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    a[i] = rng.next() & util::low_mask(32);
    b[i] = rng.next() & util::low_mask(32);
  }

  util::set_thread_count(1);
  const arith::VectorAddOutcome ref = arith::fast_vector_add(a, b, 32, em());

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    const arith::VectorAddOutcome got =
        arith::fast_vector_add(a, b, 32, em());
    EXPECT_EQ(got.sums, ref.sums) << "threads=" << threads;
    EXPECT_EQ(got.cycles, ref.cycles) << "threads=" << threads;
    EXPECT_EQ(got.energy, ref.energy) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, InmemoryVectorAddBitExact) {
  const ThreadCountGuard guard;
  util::Xoshiro256 rng(903);
  // > 2 lane groups of 64 so the group partition is actually exercised,
  // small bit width to keep the bit-level engine affordable.
  constexpr std::size_t kCount = 150;
  std::vector<std::uint64_t> a(kCount), b(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    a[i] = rng.next() & util::low_mask(8);
    b[i] = rng.next() & util::low_mask(8);
  }

  util::set_thread_count(1);
  const arith::VectorAddOutcome ref =
      arith::inmemory_vector_add(a, b, 8, em());
  EXPECT_EQ(ref.cycles, 12u * 8u + 1u);
  for (std::size_t k = 0; k < kCount; ++k)
    EXPECT_EQ(ref.sums[k], a[k] + b[k]);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    const arith::VectorAddOutcome got =
        arith::inmemory_vector_add(a, b, 8, em());
    EXPECT_EQ(got.sums, ref.sums) << "threads=" << threads;
    EXPECT_EQ(got.cycles, ref.cycles) << "threads=" << threads;
    EXPECT_EQ(got.energy, ref.energy) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, AppKernelAndDeviceStatsBitExact) {
  const ThreadCountGuard guard;
  auto app = apps::make_application("GEMM");
  ASSERT_NE(app, nullptr);
  app->generate(/*elements=*/1024, /*seed=*/77);

  util::set_thread_count(1);
  core::ApimDevice ref_device;
  const std::vector<double> ref_out = app->run_apim(ref_device);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    core::ApimDevice device;
    const std::vector<double> out = app->run_apim(device);
    EXPECT_EQ(out, ref_out) << "threads=" << threads;
    EXPECT_EQ(device.stats().multiplies, ref_device.stats().multiplies)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().additions, ref_device.stats().additions)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().cycles, ref_device.stats().cycles)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().energy_ops_pj, ref_device.stats().energy_ops_pj)
        << "threads=" << threads;
  }
}

// apps::parallel_map gives each chunk a fresh_clone of the caller's
// device, so a values-only device's workers are values-only too: outputs
// equal the full model's and no chunk merges a cost, for every thread
// count.
TEST(ValuesOnlyParallelMap, ClonesKeepTheMode) {
  const ThreadCountGuard guard;
  auto app = apps::make_application("Sobel");
  ASSERT_NE(app, nullptr);
  app->generate(/*elements=*/4096, /*seed=*/77);  // Four chunks.
  core::ApimConfig cfg;
  cfg.approx.relax_bits = 16;

  util::set_thread_count(1);
  core::ApimDevice full{cfg};
  const std::vector<double> ref_out = app->run_apim(full);
  ASSERT_GT(full.stats().multiplies, 0u);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    core::ApimDevice device = core::ApimDevice::values_only(cfg);
    EXPECT_EQ(app->run_apim(device), ref_out) << "threads=" << threads;
    EXPECT_EQ(device.stats(), core::ExecStats{}) << "threads=" << threads;
  }
}

// serve::build_qos_table tunes each app with AccuracyTuner, which tries
// as many relax settings at once as the pool has threads. The tuned table
// of all seven apps must give FullModelPin.QosTableDigestIsPinned's
// digests (values_only_test.cpp, hashed the same way) at every thread
// count.
TEST(ParallelDeterminism, QosTableDigestAtEveryThreadCount) {
  const ThreadCountGuard guard;
  const std::vector<std::string> apps = {"Sobel",   "Robert", "FFT",
                                         "DwtHaar1D", "Sharpen", "QuasiR",
                                         "GEMM"};
  constexpr std::size_t kSizes[] = {256, 1024};
  constexpr std::uint64_t kPinned[] = {7199362229566649371ull,
                                       13467531146929533883ull};
  for (const std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    for (std::size_t s = 0; s < std::size(kSizes); ++s) {
      const serve::QosTable table =
          serve::build_qos_table(apps, kSizes[s], /*seed=*/2017);
      digest::Fnv1a h;
      for (const std::string& name : apps) {
        const serve::QosTableEntry& e = table.entries().at(name);
        h.mix(name);
        h.mix(e.relax_bits);
        h.mix(e.expected_loss);
        h.mix(e.met_qos);
      }
      EXPECT_EQ(h.value(), kPinned[s])
          << "threads=" << threads << " elements=" << kSizes[s];
    }
  }
}

TEST(ParallelDeterminism, FaultCampaignBitExact) {
  // Fault campaigns must reproduce bit for bit regardless of host
  // threads: the fault table rides in the cloned config and transient
  // flips are a stateless hash of (seed, op, domain, attempt), so chunked
  // workers corrupt exactly like a serial run (clones drop no faults).
  const ThreadCountGuard guard;
  reliability::CampaignConfig cfg;
  cfg.apps = {"Sobel"};
  cfg.elements = 1024;
  cfg.trials = 1;
  cfg.stuck_rate = 1e-3;
  cfg.transient_rate = 1e-4;
  cfg.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  cfg.lanes = 16;

  util::set_thread_count(1);
  const reliability::CampaignResult ref = reliability::run_campaign(cfg);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    const reliability::CampaignResult got = reliability::run_campaign(cfg);
    ASSERT_EQ(got.runs.size(), ref.runs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ref.runs.size(); ++i) {
      EXPECT_EQ(got.runs[i].qos.metric, ref.runs[i].qos.metric)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].qos.acceptable, ref.runs[i].qos.acceptable)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].cycles, ref.runs[i].cycles)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].energy_pj, ref.runs[i].energy_pj)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].residue_checks, ref.runs[i].residue_checks)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].faults_detected, ref.runs[i].faults_detected)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].retries, ref.runs[i].retries)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].escalations, ref.runs[i].escalations)
          << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- degenerate batches --

TEST(DegenerateInputs, EmptyMultiplyBatchIsZeroed) {
  const serve::BatchExecution out = execute_multiplies({}, 32, 16);
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_TRUE(out.values[0].empty());
  EXPECT_EQ(out.makespan, 0u);
  EXPECT_EQ(out.total_lane_cycles, 0u);
  EXPECT_EQ(out.energy_pj, 0.0);
  EXPECT_EQ(out.lanes_used, 0u);
  EXPECT_EQ(out.stats, core::ExecStats{});
  EXPECT_EQ(imbalance(out), 1.0);
}

TEST(DegenerateInputs, EmptyVectorAddsAreZeroed) {
  const std::vector<std::uint64_t> none;
  const arith::VectorAddOutcome fast =
      arith::fast_vector_add(none, none, 32, em());
  EXPECT_TRUE(fast.sums.empty());
  EXPECT_EQ(fast.cycles, 0u);
  EXPECT_EQ(fast.energy, device::EnergyCounts{});

  const arith::VectorAddOutcome engine =
      arith::inmemory_vector_add(none, none, 32, em());
  EXPECT_TRUE(engine.sums.empty());
  EXPECT_EQ(engine.cycles, 0u);
  EXPECT_EQ(engine.energy, device::EnergyCounts{});
}

// ------------------------------------- served executor lane makespan --

TEST(Batch, ProductsMatchScalarExecution) {
  const auto pairs = random_pairs(50, 16, 111);
  const serve::BatchExecution batch = execute_multiplies(pairs, 16, 8);
  ASSERT_EQ(batch.values[0].size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(batch.values[0][i], pairs[i].first * pairs[i].second) << i;
}

TEST(Batch, SingleLaneMakespanEqualsTotal) {
  const auto pairs = random_pairs(20, 16, 112);
  const serve::BatchExecution batch = execute_multiplies(pairs, 16, 1);
  EXPECT_EQ(batch.makespan, batch.total_lane_cycles);
  EXPECT_DOUBLE_EQ(imbalance(batch), 1.0);
}

TEST(Batch, MoreLanesShrinkMakespan) {
  const auto pairs = random_pairs(256, 32, 113);
  const serve::BatchExecution narrow = execute_multiplies(pairs, 32, 4);
  const serve::BatchExecution wide = execute_multiplies(pairs, 32, 64);
  EXPECT_LT(wide.makespan, narrow.makespan);
  // Energy is lane-independent.
  EXPECT_EQ(wide.energy_pj, narrow.energy_pj);
  EXPECT_EQ(wide.total_lane_cycles, narrow.total_lane_cycles);
}

TEST(Batch, ImbalanceIsSmallForLargeBatches) {
  // The balanced-load idealization used by ApimDevice: with many ops per
  // lane, data-dependent latency variation averages out. This quantifies
  // the error of that assumption at Figure-5 scale.
  const serve::BatchExecution batch =
      execute_multiplies(random_pairs(4096, 32, 114), 32, 64);
  EXPECT_GE(imbalance(batch), 1.0);
  EXPECT_LT(imbalance(batch), 1.05);  // <5% makespan inflation.
}

TEST(Batch, ImbalanceIsLargerForTinyBatches) {
  // One op per lane: makespan = slowest single op. Multiply latency is
  // tightly concentrated (popcount varies by a few cycles on ~930), so the
  // inflation is small — but it must exceed the many-ops-per-lane case,
  // where averaging tightens it further.
  const serve::BatchExecution tiny =
      execute_multiplies(random_pairs(64, 32, 115), 32, 64);
  const serve::BatchExecution large =
      execute_multiplies(random_pairs(4096, 32, 115), 32, 64);
  EXPECT_GT(imbalance(tiny), imbalance(large));
  EXPECT_GT(imbalance(tiny), 1.005);
}

TEST(Batch, LanesClampedToBatchSize) {
  const serve::BatchExecution batch =
      execute_multiplies(random_pairs(3, 8, 116), 8, 100);
  EXPECT_EQ(batch.lanes_used, 3u);
}

TEST(Batch, EmptyBatch) {
  // No members at all: no values, no lanes engaged, zeroed accounting.
  const serve::BatchExecution batch = serve::execute_batch(
      {}, serve::BatchKey{}, /*lanes=*/4, core::ApimConfig{});
  EXPECT_TRUE(batch.values.empty());
  EXPECT_EQ(batch.makespan, 0u);
  EXPECT_EQ(batch.lanes_used, 0u);
  EXPECT_EQ(batch.total_lane_cycles, 0u);
  EXPECT_EQ(batch.energy_pj, 0.0);
  EXPECT_EQ(batch.stats, core::ExecStats{});
}

TEST(Batch, ApproximationAppliesPerLaneOp) {
  const auto pairs = random_pairs(32, 32, 117);
  const serve::BatchExecution exact = execute_multiplies(pairs, 32, 8);
  const serve::BatchExecution relaxed = execute_multiplies(
      pairs, 32, 8, core::Backend::kFast, /*relax_bits=*/32);
  EXPECT_LT(relaxed.makespan, exact.makespan);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(relaxed.values[0][i] >> 32,
              (pairs[i].first * pairs[i].second) >> 32);
}

}  // namespace
}  // namespace apim
