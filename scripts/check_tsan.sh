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

# The thread pool's users are apps::parallel_map, arith/vector_unit and
# core::AccuracyTuner's waves of relax candidates (parallel_exec_test,
# vector_unit_test, apps_test, util_test, tuner_test; the Tuner suites,
# AllAppsTest's tuner cases and parallel_exec_test's
# ParallelDeterminism.QosTableDigestAtEveryThreadCount run waves). The
# serving engine, its batch executor included, runs on its caller's
# thread, so the serving, cluster and analytics suites below have no host
# concurrency of their own; they stay in the gate so that a change which
# adds some (such as stepping cluster chips in parallel) is raced at once.
# serve_test's ServeDeterminism, serve_fairness_test's and
# serve_health_test's Serve* suites, cluster_test's Cluster* suites and
# analytics_test's AnalyticsDifferential suites sweep host threads
# {1,2,7}; serve_fairness_test's heavy FairShareContention suite stays
# outside the regex below on purpose. parallel_exec_test's
# ValuesOnlyParallelMap case runs a values-only device's parallel_map
# clones at {1,2,7}. Its ParallelDeterminism, DegenerateInputs and Batch
# suites and bitsliced_equivalence_test's ExecutorBackends and
# BitslicedDegenerate suites run serve::execute_batch across its 64-op
# device boundaries.
TARGETS=(parallel_exec_test bitsliced_equivalence_test vector_unit_test
  util_test apps_test tuner_test serve_test serve_fairness_test
  serve_health_test cluster_test analytics_test)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

# halt_on_error makes the first race fail the test binary (and so ctest).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelDeterminism|ValuesOnlyParallelMap|DegenerateInputs|Batch|ExecutorBackends|BitslicedDegenerate|VectorAdd|VectorUnit|Tuner|Serve|Cluster|Analytics'

echo "TSan check passed (APIM_THREADS=$APIM_THREADS)."
