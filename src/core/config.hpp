// Runtime configuration of an APIM device instance.
#pragma once

#include <cstddef>

#include "arith/approx.hpp"
#include "device/energy_model.hpp"
#include "reliability/policy.hpp"

namespace apim::core {

/// Which simulation level executes the device's arithmetic.
enum class Backend {
  /// Word-level fast functional models (default): exact same values,
  /// cycles and energy as the bit-level engine (property-tested), at
  /// application-scale speed.
  kFast,
  /// Bit-level MAGIC engine: every NOR executed on simulated memristor
  /// cells. Orders of magnitude slower on the host; use for audits and
  /// small workloads.
  kBitLevel,
  /// Bitsliced batch tier (arith/bitsliced.hpp): homogeneous batches run
  /// in 64-lane bit-plane slices, values/cycles/energy bit-identical to
  /// kFast (which is itself bit-identical to the engine). Engages on the
  /// device's *_magnitude_batch entry points, which serve::execute_batch
  /// drives, for the op kinds whose kernel-table row has a slice kernel
  /// (add, cmp; mul and popcount have none and run the word model per op).
  /// Scalar ops fall back to the word models, so results never depend on
  /// call granularity.
  kBitsliced,
};

struct ApimConfig {
  /// Word width of the in-memory datapath (the paper evaluates 32x32
  /// multiplication; products are 2x this width).
  unsigned word_bits = 32;

  /// Approximation knobs (mask/relax bits); the adaptive tuner rewrites
  /// `approx.relax_bits` at runtime.
  arith::ApproxConfig approx{};

  /// Number of crossbar processing pipelines operating concurrently on
  /// independent elements. APIM is a memory: data-parallel kernels spread
  /// across many blocks that each run the add/multiply schedules locally
  /// (Figure 1(a)); this is the throughput knob of the Figure 5 model.
  /// Energy is unaffected (every lane pays for its own ops). The default is
  /// calibrated jointly with the GPU model so exact APIM lands the paper's
  /// ~4.8x speedup at 1 GB (DESIGN.md).
  std::size_t parallel_lanes = 12288;

  /// Per-operation energy price list (see device/energy_model.hpp).
  device::EnergyModel energy = device::EnergyModel::paper_defaults();

  /// Simulation level for the arithmetic (see Backend).
  Backend backend = Backend::kFast;

  /// Fault-tolerance policy and injected fault state
  /// (reliability/policy.hpp). Part of the CONFIG on purpose: host-parallel
  /// executors clone devices as "same config, fresh stats", so the cloned
  /// workers inherit the faults and campaign results stay bit-exact for
  /// every thread count (tests/parallel_exec_test.cpp).
  reliability::ReliabilityConfig reliability{};
};

}  // namespace apim::core
