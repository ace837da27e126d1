#!/usr/bin/env bash
# Full CI pipeline: regular build + complete test suite (unit, property,
# trace-invariant, CLI smoke, golden-benchmark regression), then the
# ASan/UBSan fault smoke which rebuilds sanitized and re-runs everything.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
JOBS="${JOBS:-$(nproc)}"

echo "== Configuring $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== Running full test suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== Running crash-point enumeration sweep (ctest -L crash)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L crash
"$BUILD_DIR/tools/crash_sweep"
# Negative control: publishing without the two-phase journal must make
# the shared verdict path fail (exit 1; 0 would mean the sweep cannot
# see a torn image, 2 a rejected invocation).
unsafe_rc=0
"$BUILD_DIR/tools/crash_sweep" --mechanism cxlfork --unsafe > /dev/null ||
    unsafe_rc=$?
if [ "$unsafe_rc" -ne 1 ]; then
    echo "ci: crash_sweep --unsafe exited $unsafe_rc, want 1" >&2
    exit 1
fi

echo "== Running content-dedup suite (ctest -L dedup)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L dedup

echo "== Running coherence litmus suite (ctest -L litmus)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L litmus

echo "== Running coherence property + differential oracle (ctest -L coherence)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L coherence

echo "== Running speculative-restore suite (ctest -L speculative)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L speculative

echo "== Running chaos soak suite (ctest -L chaos)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos
"$BUILD_DIR/tools/chaos_soak"
"$BUILD_DIR/tools/chaos_soak" --mechanism cxlfork --negative

echo "== Running partition tolerance suite (ctest -L partition)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L partition
"$BUILD_DIR/tools/partition_soak"
"$BUILD_DIR/tools/partition_soak" --mechanism cxlfork --negative

echo "== Running CXLporter suite (ctest -L porter)"
# Includes the pinned PorterMetrics fingerprints and the event loop's
# exact work counts (PorterSimTest.EventCountersPinned), which fail on
# any host if a keep-alive timer moves back onto the event heap.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L porter

echo "== Running restore-path work counters (ctest -L restore)"
# Pins the exact page-table walks, VMA lookups, CRIU records decoded
# and frames per tier of one restore, invoke and destroy under every
# mechanism, and two walks per fault of each kind: a second walk on the
# translation-hit path, or a lookup re-added to the fault path, fails
# it on any host.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L restore

echo "== Running cxlfork CLI strictness (ctest -L cli)"
# A malformed number, a missing value or an unknown flag exits 2 with
# the usage line; a cluster the porter refuses exits 1; --cxl-latency
# reaches the porter's profiles.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L cli

echo "== Running armed-fabric work counters (ctest -L fabric_work)"
# Pins the transactions each fabric stage sees, coherence messages,
# content-index probes, bytes CRC'd and heap allocations of checkpoints,
# restores and a reclaim with every opt-in layer armed: a layer that
# starts doing extra per-page work fails it on any host.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L fabric_work

echo "== Running fabric-contention suite (ctest -L contention)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L contention
# The analytical anchor, run explicitly: the queue's measured mean wait
# must track the M/D/1 Pollaczek-Khinchine prediction at every swept
# utilization, or the model's timing story is fiction.
"$BUILD_DIR/tests/contention_oracle_test" \
    --gtest_filter='SweptUtilizations/*'

echo "== Running golden-benchmark regression suite (CXLFORK_JOBS=1)"
CXLFORK_JOBS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

echo "== Running golden-benchmark regression suite (CXLFORK_JOBS=8)"
CXLFORK_JOBS=8 ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

echo "== Running the benchmark's correctness self-test (perfbench --selftest)"
# Builds perfbench into .bench_build/ and proves each of its checks
# (restored tokens, frame leak, porter request count) fails when fed a
# wrong expectation while the clean runs pass.
(cd "$REPO_ROOT" && python3 perfbench/run.py --selftest)

echo "== Checking perfbench sim-identity digests (seed 1, every workload)"
# Host-only changes must leave simulated results bit-identical. Each
# workload's seed-1 digest must equal the "seed 1" column of the digest
# table in perfbench/README.md, read from the table itself so the
# README stays the one place the expected values live.
readme_digest() {
    awk -F'|' -v want="$1" '
        /^## / { inTable = /Sim-identity digest/; col = 0 }
        function cell(i,  s) { s = $i; gsub(/[ `]/, "", s); return s }
        inTable && !col && cell(2) == "workload" {
            for (i = 3; i < NF; ++i) if (cell(i) == "seed1") col = i
        }
        inTable && col && cell(2) == want { print cell(col); exit }
    ' "$REPO_ROOT/perfbench/README.md"
}
for workload in restore_burst checkpoint_churn porter_trace; do
    want=$(readme_digest "$workload")
    if [ -z "$want" ]; then
        echo "ci: no seed-1 digest for $workload in perfbench/README.md" >&2
        exit 1
    fi
    got=$(cd "$REPO_ROOT" && python3 perfbench/run.py --workload "$workload" \
              --seed 1 --seconds 10 --trace 0 |
          awk '$1 == "digest" { print $4 }')
    if [ "$got" != "$want" ]; then
        echo "ci: $workload seed-1 digest '$got' != '$want'" \
             "(perfbench/README.md)" >&2
        exit 1
    fi
    echo "   $workload seed=1 digest $got matches"
done

echo "== Checking host wall-clock against the checked-in baseline"
WALLCLOCK_OUT="$BUILD_DIR/BENCH_WALLCLOCK.json"
rm -f "$WALLCLOCK_OUT"
for jobs in 1 8; do
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_checkpoint" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_fig8_tiering" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_coherence" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_speculative" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_partition" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_contention" > /dev/null
done
if ! "$BUILD_DIR/tools/perfcmp" \
        "$REPO_ROOT/tests/perf/BENCH_WALLCLOCK.json" "$WALLCLOCK_OUT" \
        0.20; then
    echo "ci: wall-clock regressed >20% vs tests/perf/BENCH_WALLCLOCK.json" >&2
    echo "ci: if intentional, refresh with: cp $WALLCLOCK_OUT" \
         "$REPO_ROOT/tests/perf/BENCH_WALLCLOCK.json" >&2
    exit 1
fi

echo "== Running ASan/UBSan fault smoke (sanitized rebuild + full suite)"
BUILD_DIR="${ASAN_BUILD_DIR:-$REPO_ROOT/build-asan}" JOBS="$JOBS" \
    "$REPO_ROOT/tools/fault_smoke.sh"

echo "== Running ThreadSanitizer smoke (parallel sweep executor)"
BUILD_DIR="${TSAN_BUILD_DIR:-$REPO_ROOT/build-tsan}" JOBS="$JOBS" \
    "$REPO_ROOT/tools/tsan_smoke.sh"

echo "== ci: all checks passed"
