#include "apps/parallel.hpp"

#include "util/thread_pool.hpp"

namespace apim::apps {

std::vector<double> parallel_map(
    core::ApimDevice& device, std::size_t count,
    const std::function<double(core::ApimDevice&, std::size_t)>& fn) {
  std::vector<double> out(count);
  if (count == 0) return out;

  const std::size_t chunks = (count + kParallelMapGrain - 1) /
                             kParallelMapGrain;
  std::vector<core::ExecStats> chunk_stats(chunks);
  util::ThreadPool::global().parallel_for(
      0, count, kParallelMapGrain, [&](std::size_t lo, std::size_t hi) {
        core::ApimDevice worker = device.fresh_clone();
        for (std::size_t i = lo; i < hi; ++i) out[i] = fn(worker, i);
        chunk_stats[lo / kParallelMapGrain] = worker.stats();
      });
  for (const core::ExecStats& s : chunk_stats) device.merge_stats(s);
  return out;
}

}  // namespace apim::apps
