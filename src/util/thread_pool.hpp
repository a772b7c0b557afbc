// Fixed-size host thread pool for the embarrassingly-parallel hot paths of
// the simulator: per-element application kernels (apps::parallel_map),
// the row-parallel vector adds (arith/vector_unit.hpp) and the tuner's
// waves of relax settings (core/tuner.hpp). The serving runtime does not
// use it; its batch executor runs serially (serve/executor.hpp).
//
// APIM's modeled concurrency (tiles/lanes running MAGIC schedules at once)
// is independent of host concurrency: the pool only changes how fast the
// host simulates, never what is simulated. The determinism contract every
// caller follows:
//
//  * work is split into chunks whose boundaries depend ONLY on the problem
//    size and a fixed grain — never on the thread count;
//  * each chunk writes to its own disjoint slots / private accumulator;
//  * the caller merges per-chunk accumulators serially in chunk order.
//
// Under that contract any thread count (including 1) produces bit-identical
// values, cycle counts and energies (tests/parallel_exec_test.cpp).
#pragma once

#include <cstddef>
#include <functional>

namespace apim::util {

/// Largest host thread count that `set_thread_count`, `APIM_THREADS` and
/// `--threads` accept.
inline constexpr std::size_t kMaxThreads = 512;

/// Number of host threads parallel work may use: the `set_thread_count`
/// override if set, else the `APIM_THREADS` environment variable (read
/// strictly, util/scan.hpp; a value outside 1..kMaxThreads is ignored),
/// else `std::thread::hardware_concurrency()`. Always >= 1.
[[nodiscard]] std::size_t configured_thread_count();

/// Process-wide override of the host thread count (the `--threads` knob).
/// Pass 0 to restore the default (env var / hardware concurrency). Throws
/// std::invalid_argument above kMaxThreads, leaving the count unchanged.
/// Takes effect at the next `ThreadPool::global()` call; must not be called
/// while parallel work is in flight.
void set_thread_count(std::size_t threads);

/// The `--threads N` (or `--threads=N`) flag of the bench binaries and
/// examples: reads N in 1..kMaxThreads from argv and passes it to
/// `set_thread_count`; without the flag the pool keeps its default. A
/// missing, malformed or out-of-range value prints
/// "<program>: error: ..." to stderr and exits 2. Returns the effective
/// thread count. Results are bit-identical for every setting; the knob
/// only changes host wall-clock time.
std::size_t configure_threads(int argc, char** argv);

class ThreadPool {
 public:
  /// A pool of `threads` total executors: the calling thread plus
  /// `threads - 1` workers. `threads` is clamped to >= 1; a pool of size 1
  /// runs everything inline on the caller.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (workers + the calling thread).
  [[nodiscard]] std::size_t size() const noexcept {
    return workers_count_ + 1;
  }

  /// Called once per chunk with a half-open index range [lo, hi).
  using RangeFn = std::function<void(std::size_t lo, std::size_t hi)>;

  /// Execute `fn` over [begin, end) in chunks of `grain` indices. Chunk
  /// boundaries are `begin + k*grain` regardless of thread count. Blocks
  /// until every chunk has run. The first exception thrown by `fn` is
  /// rethrown here (remaining chunks are abandoned). A call made from
  /// inside a chunk, on a worker or on the calling thread, runs inline
  /// (serially) to avoid deadlock.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const RangeFn& fn);

  /// The process-wide pool, sized from `configured_thread_count()`. The
  /// pool is rebuilt lazily when the configured count changes.
  [[nodiscard]] static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();
  static void run_chunks(Job& job);

  struct Impl;
  Impl* impl_;
  std::size_t workers_count_ = 0;
};

}  // namespace apim::util
