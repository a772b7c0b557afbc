// Execution statistics accumulated by an ApimDevice.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace apim::core {

struct ExecStats {
  std::uint64_t multiplies = 0;
  std::uint64_t additions = 0;
  std::uint64_t comparisons = 0;  ///< Three-way compares (analytics ops).
  std::uint64_t popcounts = 0;    ///< In-memory popcount reductions.
  util::Cycles cycles = 0;         ///< Total lane-cycles issued.
  double energy_ops_pj = 0.0;      ///< Micro-op energy (no cycle overhead).
  std::uint64_t partial_products = 0;  ///< Generated across all multiplies.

  // -- Reliability counters (reliability/policy.hpp) ----------------------
  std::uint64_t residue_checks = 0;   ///< Mod-3 checks performed.
  std::uint64_t faults_detected = 0;  ///< Residue mismatches / vote splits.
  std::uint64_t retries = 0;          ///< Re-executions on another domain.
  std::uint64_t votes = 0;            ///< Triple-vote combinations.
  std::uint64_t escalations = 0;      ///< Retry ladders exhausted: the op
                                      ///< returned unverified and the
                                      ///< device counts as degraded.

  void reset() { *this = ExecStats{}; }

  /// Field-wise equality; the energy double compares bit for bit, which is
  /// what the batch-vs-scalar equivalence tests require.
  [[nodiscard]] bool operator==(const ExecStats&) const = default;

  /// Fold another accumulator into this one. Host-parallel executors give
  /// each worker a private ExecStats and merge them in deterministic chunk
  /// order (util/thread_pool.hpp), never through shared mutable counters.
  void merge(const ExecStats& other) {
    multiplies += other.multiplies;
    additions += other.additions;
    comparisons += other.comparisons;
    popcounts += other.popcounts;
    cycles += other.cycles;
    energy_ops_pj += other.energy_ops_pj;
    partial_products += other.partial_products;
    residue_checks += other.residue_checks;
    faults_detected += other.faults_detected;
    retries += other.retries;
    votes += other.votes;
    escalations += other.escalations;
  }
};

}  // namespace apim::core
