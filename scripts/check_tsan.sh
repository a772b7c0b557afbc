#!/usr/bin/env bash
# ThreadSanitizer gate for the host-side thread pool.
#
# Configures a dedicated build tree with -DAPIM_SANITIZE=thread, builds the
# concurrency-relevant tests, and runs them under TSan with a multi-worker
# pool (APIM_THREADS, default 4) so data races in parallel_for users are
# actually exercised. Exits nonzero on any race report or test failure.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
export APIM_THREADS="${APIM_THREADS:-4}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAPIM_SANITIZE=thread

# The serving engine runs on its caller's thread in every driving mode
# (there is no threaded driver); its only host concurrency is
# execute_batch's pool inside a dispatch. serve_test's Serve* suites
# drive it at threads {1,2,7} (ServeDeterminism), also under a
# reliability policy.
# serve_fairness_test's Serve* suites (DRR unit tests, randomized
# conservation, thread-count invariance) run here; its heavy
# FairShareContention suite stays outside the regex below on purpose.
# serve_health_test's Serve* suites (health monitor, scrub, chaos with
# mid-serve kills) exercise execute_batch's pool under relocation.
# cluster_test's Cluster* suites drive N servers' dispatch pools from the
# cluster event loop, including the thread-count invariance test.
# analytics_test's AnalyticsDifferential suites sweep host threads {1,2,7}
# over operator waves, hammering execute_batch's parallel_for.
# The direct multi-chunk, multi-thread tests of serve::execute_batch are
# parallel_exec_test's ParallelDeterminism, DegenerateInputs and Batch
# suites and bitsliced_equivalence_test's ExecutorBackends and
# BitslicedDegenerate suites (kFast vs kBitsliced, ragged tails).
TARGETS=(parallel_exec_test bitsliced_equivalence_test vector_unit_test
  util_test apps_test serve_test serve_fairness_test serve_health_test
  cluster_test analytics_test)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

# halt_on_error makes the first race fail the test binary (and so ctest).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelDeterminism|DegenerateInputs|Batch|ExecutorBackends|BitslicedDegenerate|VectorAdd|VectorUnit|Serve|Cluster|Analytics'

echo "TSan check passed (APIM_THREADS=$APIM_THREADS)."
