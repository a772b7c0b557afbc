#include "util/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "util/scan.hpp"

namespace apim::util {

namespace {

/// Set while the current thread runs chunks, on a pool worker or on a
/// caller inside its own parallel_for, so a nested parallel_for degrades
/// to an inline serial loop instead of deadlocking on the pool it is
/// already servicing.
thread_local bool t_running_chunks = false;

std::mutex g_config_mutex;
std::size_t g_thread_override = 0;  // 0 = use env / hardware default.
std::unique_ptr<ThreadPool> g_pool;

std::size_t default_thread_count() {
  std::size_t threads = 0;
  if (const char* env = std::getenv("APIM_THREADS");
      env != nullptr && scan(env, &threads, 1, kMaxThreads))
    return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t configured_locked() {
  return g_thread_override != 0 ? g_thread_override : default_thread_count();
}

}  // namespace

std::size_t configured_thread_count() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  return configured_locked();
}

void set_thread_count(std::size_t threads) {
  if (threads > kMaxThreads)
    throw std::invalid_argument("set_thread_count: threads above kMaxThreads");
  std::lock_guard<std::mutex> lock(g_config_mutex);
  g_thread_override = threads;
}

std::size_t configure_threads(int argc, char** argv) {
  constexpr std::string_view kFlag = "--threads";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg == kFlag)
      value = i + 1 < argc ? argv[++i] : "";
    else if (arg.starts_with(kFlag) && arg[kFlag.size()] == '=')
      value = argv[i] + kFlag.size() + 1;
    else
      continue;
    std::size_t threads = 0;
    if (!scan(value, &threads, 1, kMaxThreads)) {
      const char* slash = std::strrchr(argv[0], '/');
      std::fprintf(stderr, "%s: error: --threads expects 1..%zu, got '%s'\n",
                   slash != nullptr ? slash + 1 : argv[0], kMaxThreads, value);
      std::exit(2);
    }
    set_thread_count(threads);
  }
  return configured_thread_count();
}

// One parallel_for invocation. Shared with workers through a shared_ptr so
// a worker that wakes up after the caller has already returned still holds
// a live object (it will find no chunks left and exit immediately).
struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  const RangeFn* fn = nullptr;

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t next_chunk = 0;  ///< Next unclaimed chunk (guarded by mutex).
  std::size_t in_flight = 0;   ///< Executors inside run_chunks.
  std::exception_ptr error;
};

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;
  std::shared_ptr<Job> current;
  std::uint64_t job_seq = 0;
  bool stop = false;

  std::mutex submit_mutex;  ///< Serializes concurrent parallel_for calls.
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  workers_count_ = threads < 1 ? 0 : threads - 1;
  impl_->workers.reserve(workers_count_);
  for (std::size_t i = 0; i < workers_count_; ++i)
    impl_->workers.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::worker_loop() {
  t_running_chunks = true;
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->work_cv.wait(lock, [&] {
        return impl_->stop || (impl_->current && impl_->job_seq != seen_seq);
      });
      if (impl_->stop) return;
      job = impl_->current;
      seen_seq = impl_->job_seq;
    }
    run_chunks(*job);
  }
}

void ThreadPool::run_chunks(Job& job) {
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    ++job.in_flight;
  }
  for (;;) {
    std::size_t chunk;
    {
      std::lock_guard<std::mutex> lock(job.mutex);
      if (job.next_chunk >= job.chunks) break;
      chunk = job.next_chunk++;
    }
    const std::size_t lo = job.begin + chunk * job.grain;
    const std::size_t hi = std::min(lo + job.grain, job.end);
    try {
      (*job.fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
      job.next_chunk = job.chunks;  // Abandon the remaining chunks.
    }
  }
  std::lock_guard<std::mutex> lock(job.mutex);
  if (--job.in_flight == 0) job.done_cv.notify_all();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const RangeFn& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;

  // Chunk boundaries are identical on every path below; only WHO executes
  // a chunk varies, and the determinism contract makes that irrelevant.
  if (workers_count_ == 0 || chunks == 1 || t_running_chunks) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      fn(lo, std::min(lo + grain, end));
    }
    return;
  }

  std::lock_guard<std::mutex> submit_lock(impl_->submit_mutex);
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunks = chunks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current = job;
    ++impl_->job_seq;
  }
  impl_->work_cv.notify_all();

  t_running_chunks = true;  // The caller is an executor too.
  run_chunks(*job);
  t_running_chunks = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] {
      return job->next_chunk >= job->chunks && job->in_flight == 0;
    });
    error = job->error;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current.reset();
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  const std::size_t want = configured_locked();
  if (!g_pool || g_pool->size() != want)
    g_pool = std::make_unique<ThreadPool>(want);
  return *g_pool;
}

}  // namespace apim::util
