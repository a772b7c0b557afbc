// google-benchmark microbenchmarks of the simulator itself: host-side
// throughput of the fast functional models and the bit-level engine.
//
// These are not paper results; they document the cost of simulation (how
// many modeled multiplies per second the two levels deliver) so users can
// size their experiments.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "arith/bitsliced.hpp"
#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/word_models.hpp"
#include "core/apim.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

void BM_FastMultiplyExact(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    benchmark::DoNotOptimize(
        arith::fast_multiply(a, b, n, arith::ApproxConfig::exact(), em()));
  }
}
BENCHMARK(BM_FastMultiplyExact)->Arg(8)->Arg(16)->Arg(32);

void BM_FastMultiplyRelaxed(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  for (auto _ : state) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    benchmark::DoNotOptimize(arith::fast_multiply(
        a, b, 32, arith::ApproxConfig::last_stage(32), em()));
  }
}
BENCHMARK(BM_FastMultiplyRelaxed);

void BM_EngineMultiplyExact(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    benchmark::DoNotOptimize(
        arith::inmemory_multiply(a, b, n, arith::ApproxConfig::exact(), em()));
  }
}
BENCHMARK(BM_EngineMultiplyExact)->Arg(8)->Arg(16)->Arg(32);

void BM_WordSerialAdd(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arith::word_serial_add(rng.next() & util::low_mask(32),
                               rng.next() & util::low_mask(32), 32, em()));
  }
}
BENCHMARK(BM_WordSerialAdd);

void BM_FastCompare(benchmark::State& state) {
  util::Xoshiro256 rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arith::fast_compare(rng.next() & util::low_mask(32),
                            rng.next() & util::low_mask(32), 32, em()));
  }
}
BENCHMARK(BM_FastCompare);

void BM_FastPopcount(benchmark::State& state) {
  util::Xoshiro256 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arith::fast_popcount(rng.next() & util::low_mask(32), 32, em()));
  }
}
BENCHMARK(BM_FastPopcount);

// Host-side scaling of the served batch executor (serve::execute_batch)
// over the thread pool: one 10k-multiply dispatch on a 256-lane stream.
// Arg = thread count. The products/cycles/energy are bit-identical across
// all Args and both host tiers (tests/parallel_exec_test.cpp asserts
// this); only wall-clock time changes. On a >= 4-core host Arg(4) should
// run >= 2x faster than Arg(1).
void run_multiply_batch10k(benchmark::State& state, core::Backend backend) {
  constexpr std::size_t kBatch = 10000;
  util::Xoshiro256 rng(6);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  ops.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    ops.emplace_back(rng.next() & util::low_mask(32),
                     rng.next() & util::low_mask(32));
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(ops);
  core::ApimConfig base;
  base.backend = backend;
  const serve::BatchKey key;  // Exact width-32 multiplies.
  util::set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::execute_batch(std::span(&member, 1), key,
                                                  /*lanes=*/256, base));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  util::set_thread_count(0);  // Restore the default for later benchmarks.
}

void BM_FastMultiplyBatch10k(benchmark::State& state) {
  run_multiply_batch10k(state, core::Backend::kFast);
}
BENCHMARK(BM_FastMultiplyBatch10k)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The same 10k batch through Backend::kBitsliced, which runs the same
// kernels as kFast, so items_per_second should match
// BM_FastMultiplyBatch10k's at the same Arg.
void BM_BitslicedMultiplyBatch10k(benchmark::State& state) {
  run_multiply_batch10k(state, core::Backend::kBitsliced);
}
BENCHMARK(BM_BitslicedMultiplyBatch10k)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The add slice shim: 64 width-32 fast_add calls, so its per-item time is
// the word add's.
void BM_BitslicedAddSlice(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (std::size_t i = 0; i < arith::kBitsliceLanes; ++i)
    ops.emplace_back(rng.next() & util::low_mask(32),
                     rng.next() & util::low_mask(32));
  std::vector<arith::AddOutcome> out(ops.size());
  for (auto _ : state) {
    arith::bitsliced_add_slice(ops, 32, 0, em(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_BitslicedAddSlice);

void BM_DeviceMac(benchmark::State& state) {
  core::ApimDevice dev;
  util::Xoshiro256 rng(5);
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc = dev.mac_int(acc & 0xFFFF,
                      static_cast<std::int64_t>(rng.next_below(1u << 16)),
                      static_cast<std::int64_t>(rng.next_below(1u << 16)));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DeviceMac);

}  // namespace

BENCHMARK_MAIN();
