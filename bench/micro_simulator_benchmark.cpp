// google-benchmark microbenchmarks of the simulator itself: host-side
// throughput of the fast functional models and the bit-level engine.
//
// These are not paper results; they document the cost of simulation (how
// many modeled multiplies per second the two levels deliver) so users can
// size their experiments.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arith/bitsliced.hpp"
#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/word_models.hpp"
#include "core/apim.hpp"
#include "serve/executor.hpp"
#include "serve/load_gen.hpp"
#include "serve/qos_table.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

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

// The multiply the offline QoS tuner runs (core::ApimDevice::values_only):
// values only, 32 bits, relax 16.
void BM_FastMultiplyValuesOnly(benchmark::State& state) {
  util::Xoshiro256 rng(8);
  for (auto _ : state) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    benchmark::DoNotOptimize(arith::fast_multiply<false>(
        a, b, 32, arith::ApproxConfig::last_stage(16), em()));
  }
}
BENCHMARK(BM_FastMultiplyValuesOnly);

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
                               rng.next() & util::low_mask(32), 32));
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

// Host cost of the served batch executor (serve::execute_batch): one
// 10k-multiply dispatch on a 256-lane stream. The executor runs serially,
// and the products/cycles/energy are bit-identical on both host tiers
// (tests/parallel_exec_test.cpp asserts this).
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::execute_batch(std::span(&member, 1), key,
                                                  /*lanes=*/256, base));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

void BM_FastMultiplyBatch10k(benchmark::State& state) {
  run_multiply_batch10k(state, core::Backend::kFast);
}
BENCHMARK(BM_FastMultiplyBatch10k);

// The same 10k batch through Backend::kBitsliced, which runs the same
// kernels as kFast, so items_per_second should match
// BM_FastMultiplyBatch10k's.
void BM_BitslicedMultiplyBatch10k(benchmark::State& state) {
  run_multiply_batch10k(state, core::Backend::kBitsliced);
}
BENCHMARK(BM_BitslicedMultiplyBatch10k);

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

// The offline tuning step of the serve-kernel benchmark workload: Sobel
// and FFT tuned at 1 024 elements, on the global pool (APIM_THREADS).
void BM_BuildQosTable(benchmark::State& state) {
  const std::vector<std::string> apps = {"Sobel", "FFT"};
  for (auto _ : state)
    benchmark::DoNotOptimize(serve::build_qos_table(apps, 1024, 2017));
}
BENCHMARK(BM_BuildQosTable)->Unit(benchmark::kMillisecond);

// An open-loop trace of the serve-kernel benchmark workload's request
// shape (32 width-32 ops, a quarter of them adds), 8 001 requests; each
// iteration also frees the trace it made.
void BM_OpenLoopTrace(benchmark::State& state) {
  serve::LoadGenConfig gen;
  gen.requests = 8001;
  gen.rate_per_kcycle = 10.0;
  gen.apps = {"Sobel", "FFT"};
  gen.min_ops = 32;
  gen.max_ops = 32;
  gen.width = 32;
  gen.add_fraction = 0.25;
  for (auto _ : state)
    benchmark::DoNotOptimize(serve::make_open_loop_trace(gen));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gen.requests));
}
BENCHMARK(BM_OpenLoopTrace)->Unit(benchmark::kMillisecond);

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
