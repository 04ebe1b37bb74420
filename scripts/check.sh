#!/usr/bin/env bash
# The repo's full correctness gate (tier-2):
#   1. configure + build the asan-ubsan preset (-Werror on),
#   2. run the whole test suite under AddressSanitizer + UBSan,
#   3. run the concurrency tests under ThreadSanitizer (tsan preset),
#      including the admission-vs-retrain overload hammer,
#   4. run the repo lint pass (tools/lint, token-aware rules incl.
#      lock-discipline / atomic-ordering / no-nondeterminism) and the
#      clang thread-safety analysis gate (scripts/check_static_analysis.sh;
#      skipped with a warning when clang++ is not installed),
#   5. run the EXPLAIN examples and validate their JSON artifacts' schemas,
#      and run the plan-and-execute example end to end,
#   6. run the doc-drift gate (docs <-> source knob cross-check),
#   7. run the serving-throughput, plan-search, model-lifecycle, and
#      closed-loop traffic benches (default preset, no sanitizer) and check
#      their BENCH json: hard floors fail, drift vs bench/baselines/ warns
#      (scripts/check_bench_regression.py), and a second model-lifecycle
#      run must write byte-identical json (seeded replay).
# Exits nonzero on any compiler warning, test failure, sanitizer report, or
# lint finding. Tier-1 (`cmake -B build -S . && cmake --build build &&
# ctest`) stays fast; run this before merging.
#
# Usage: scripts/check.sh [-j N]

set -euo pipefail

cd "$(dirname "$0")/.."

# Hard wall-clock ceiling for the whole gate (seconds; override with
# CHECK_TIMEOUT=N). The script re-execs itself under `timeout` once so a
# wedged build or test run kills the gate instead of hanging CI forever.
CHECK_TIMEOUT="${CHECK_TIMEOUT:-5400}"
if [[ -z "${CHECK_SH_UNDER_TIMEOUT:-}" ]] && command -v timeout >/dev/null; then
  export CHECK_SH_UNDER_TIMEOUT=1
  exec timeout --signal=TERM "$CHECK_TIMEOUT" "$0" "$@"
fi

JOBS="$(nproc 2>/dev/null || echo 4)"
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: scripts/check.sh [-j N]" >&2; exit 2 ;;
  esac
done

echo "== [1/7] configure + build: asan-ubsan preset (-Werror) =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$JOBS"

echo "== [2/7] ctest under asan+ubsan =="
# Halt on the first error report instead of trying to continue, and exclude
# the tier2 label so this gate cannot recurse into itself.
# --timeout backstops tests registered without a per-test TIMEOUT property.
ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$JOBS" \
    --timeout 300 -LE tier2

echo "== [3/7] thread pool + parallel pipeline + observability + serving + resilience + lifecycle + admission under tsan =="
# Only the concurrency targets: everything that spawns threads goes through
# src/util/thread_pool.* (lint rule no-raw-thread). parallel_training_test
# drives every parallel code path, observability_test exercises the
# trace-sink and metrics-registry locking from pool workers, serving_test
# hammers the sharded estimate cache and EstimationService from concurrent
# workers — including the seqlock reader/writer hammer
# (SeqlockReaderWriterHammer) that races the lock-free read path against
# writers evicting and rewriting the ways of one set, and two threads'
# overlapping batches prefetching, probing and filling one small table
# (OverlappingBatchesOnOneSmallTableHammer) — resilience_test drives circuit
# breakers and degraded serving under concurrent faulty traffic, and
# lifecycle_test races estimate serving against background retrains and
# the epoch-bumped model swap (ConcurrentServeDuringRetrainHammer), and
# admission_test races multi-tenant admission-gated traffic against the
# lifecycle driver's drift/retrain/swap loop
# (MultiTenantOverloadRetrainHammer), so tsan on these six binaries covers
# the library's concurrency surface without a second full-suite run.
cmake --preset tsan
cmake --build --preset tsan --target parallel_training_test \
  observability_test serving_test resilience_test lifecycle_test \
  admission_test -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/parallel_training_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/observability_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/serving_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/resilience_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/lifecycle_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/admission_test

echo "== [4/7] repo lint pass + thread-safety static analysis =="
cmake --preset lint
cmake --build --preset lint -j "$JOBS"
# Clang-only thread-safety analysis; skips (warning) when clang++ is absent.
scripts/check_static_analysis.sh -j "$JOBS"

echo "== [5/7] EXPLAIN examples + JSON schema validation + plan execution =="
# The examples run under asan+ubsan (built in step 1's tree) and must
# produce valid EXPLAIN_query_plan.json (the query_plan schema) and
# EXPLAIN_serving.json / EXPLAIN_lifecycle.json / EXPLAIN_admission.json
# (status documents: StatsSnapshot() samples, one flat checker).
# federated_query_planning plans with PlanQuery and runs the chosen tree
# through ExecuteBest; it must exit 0.
cmake --build --preset asan-ubsan --target explain_serving \
  explain_query_plan explain_lifecycle explain_admission \
  federated_query_planning -j "$JOBS"
(cd build-asan-ubsan &&
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./examples/federated_query_planning)
(cd build-asan-ubsan &&
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./examples/explain_serving)
python3 scripts/check_explain_json.py build-asan-ubsan/EXPLAIN_serving.json
(cd build-asan-ubsan &&
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./examples/explain_query_plan)
python3 scripts/check_explain_json.py build-asan-ubsan/EXPLAIN_query_plan.json
(cd build-asan-ubsan &&
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./examples/explain_lifecycle)
python3 scripts/check_explain_json.py build-asan-ubsan/EXPLAIN_lifecycle.json
(cd build-asan-ubsan &&
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./examples/explain_admission)
python3 scripts/check_explain_json.py build-asan-ubsan/EXPLAIN_admission.json

echo "== [6/7] doc-drift gate =="
# Every Properties key / CMake option the docs mention must still exist in
# the source, and every declared serving.*/training.* knob must be
# documented in docs/CONFIG.md.
python3 scripts/check_docs.py

echo "== [7/7] serving-throughput + plan-search + model-lifecycle + traffic benches + regression check =="
# A real (unsanitized) build: each bench enforces its own floors at
# runtime and aborts on violation; the checker re-verifies the artifacts'
# hard floors and warns about drift against bench/baselines/. The
# model-lifecycle bench hands every retrain off at a fixed step, so it
# replays from its seed: it runs a second time, and a json that differs
# from the first run's by one byte fails the step like a failed bench.
cmake --preset default
cmake --build --preset default --target bench_serving_throughput \
  bench_plan_search bench_model_lifecycle bench_traffic -j "$JOBS"
# Every bench runs and is checked even when an earlier one fails, so one
# failing gate cannot hide the others' results; the step still fails at
# the end if any bench or its check failed.
failed_benches=()
run_bench() {
  if ! (cd build && "./bench/bench_$1") ||
     ! python3 scripts/check_bench_regression.py "build/BENCH_$1.json"; then
    failed_benches+=("$1")
  fi
}
replay_bench() {
  local first="build/BENCH_$1.first.json"
  if ! cp "build/BENCH_$1.json" "$first" ||
     ! (cd build && "./bench/bench_$1" >/dev/null) ||
     ! cmp "$first" "build/BENCH_$1.json"; then
    failed_benches+=("$1-replay")
  fi
}
run_bench serving_throughput
run_bench plan_search
run_bench model_lifecycle
replay_bench model_lifecycle
run_bench traffic
if (( ${#failed_benches[@]} > 0 )); then
  echo "check.sh: bench gates failed: ${failed_benches[*]}" >&2
  exit 1
fi

echo "check.sh: all gates passed"
