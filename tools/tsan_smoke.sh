#!/usr/bin/env bash
# ThreadSanitizer smoke for the parallel sweep executor: rebuild the
# sweep benches with -DCXLFORK_TSAN=ON and run them with CXLFORK_JOBS>1
# so the worker threads actually contend. TSan makes the process exit
# non-zero when it reports a race, so a clean pass is the assertion.
#
# Environment:
#   BUILD_DIR   sanitized build tree (default <repo>/build-tsan)
#   JOBS        host build parallelism (default nproc)
#   SWEEP_JOBS  CXLFORK_JOBS for the bench runs (default 4)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-tsan}"
JOBS="${JOBS:-$(nproc)}"
SWEEP_JOBS="${SWEEP_JOBS:-4}"

# fig10 exercises the shared (mutex-protected) porter::PerfModel cache
# and interns function names from the PorterSims its workers build;
# ext_coherence runs directory-armed clusters on every worker thread;
# ext_speculative trains predictors and decompresses codec pages on
# every worker thread; ext_partition runs link-model-armed soaks (the
# whole restore ladder, quarantines included) on every worker thread;
# ext_contention runs queue-model-armed clusters on every worker
# thread (each point owns its queue, so TSan proves no cross-point
# sharing leaked in).
BENCHES=(bench_fig8_tiering bench_ext_scaling bench_fig10_porter
         bench_ext_coherence bench_ext_speculative bench_ext_partition
         bench_ext_contention)

echo "== Configuring TSan build in $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCXLFORK_TSAN=ON
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${BENCHES[@]}" \
    sim_threadpool_test property_pagestore_test \
    litmus_coherence_test property_coherence_test \
    speculative_determinism_test link_health_test partition_soak_test \
    scenario_combined_test property_contention_test porter_trace_test

echo "== ThreadPool unit test under TSan"
"$BUILD_DIR/tests/sim_threadpool_test"

echo "== PageStore property fuzz under TSan"
"$BUILD_DIR/tests/property_pagestore_test"

echo "== Function-name interning from pool workers under TSan"
"$BUILD_DIR/tests/porter_trace_test" --gtest_filter='FunctionId.*'

echo "== Coherence litmus + property fuzz under TSan"
"$BUILD_DIR/tests/litmus_coherence_test"
"$BUILD_DIR/tests/property_coherence_test"

echo "== Predictor determinism (threaded training) under TSan"
"$BUILD_DIR/tests/speculative_determinism_test"

echo "== Link-health units + partition and combined soaks under TSan"
"$BUILD_DIR/tests/link_health_test"
"$BUILD_DIR/tests/partition_soak_test"
"$BUILD_DIR/tests/scenario_combined_test"

echo "== Fabric-queue shadow fuzz under TSan"
"$BUILD_DIR/tests/property_contention_test"

for bench in "${BENCHES[@]}"; do
    echo "== $bench under TSan with CXLFORK_JOBS=$SWEEP_JOBS"
    CXLFORK_JOBS="$SWEEP_JOBS" CXLFORK_TRACE=1 \
        "$BUILD_DIR/bench/$bench" > /dev/null
done

echo "tsan_smoke: clean"
