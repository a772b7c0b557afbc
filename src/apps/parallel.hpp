// Host-parallel execution of per-element application kernels.
//
// The six paper kernels (and GEMM) issue every multiply/add of element i
// independently of element j, so the host can simulate elements
// concurrently. Each fixed-size chunk of elements runs against a private
// ApimDevice::fresh_clone (same config and mode, fresh stats, so a
// values-only device's clones are values-only); the clones' ExecStats merge
// into the caller's device serially in chunk order. Because the chunk
// partition depends only on the element count — never on the thread count —
// outputs, cycle counts and energies are bit-identical for every
// APIM_THREADS setting (tests/parallel_exec_test.cpp).
//
// Kernels with cross-element dependences (FFT butterflies, DWT levels)
// keep their serial loops; this helper is for the per-element ones.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/apim.hpp"

namespace apim::apps {

/// Elements per device-clone chunk. Fixed so stats merge identically for
/// every thread count.
inline constexpr std::size_t kParallelMapGrain = 1024;

/// Computes out[i] = fn(worker_device, i) for i in [0, count) across the
/// global thread pool and charges all issued ops to `device` in
/// deterministic chunk order.
[[nodiscard]] std::vector<double> parallel_map(
    core::ApimDevice& device, std::size_t count,
    const std::function<double(core::ApimDevice&, std::size_t)>& fn);

}  // namespace apim::apps
