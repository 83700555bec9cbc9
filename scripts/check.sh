#!/usr/bin/env bash
# One-command verify: docs link/coverage check, tier-1 build + full
# test suite, then the sharded
# runtime's test binaries under ThreadSanitizer (race detection for the
# worker pool / shard tick path / per-shard trace sinks), then the
# protocol + observability + serving + batched-fleet + adaptive-servo
# + fusion + checkpoint (snapshot codec, restore chaos, decoder fuzz)
# tests under ASan+UBSan, then a gcov coverage build gating line
# coverage of src/obs/, src/dsms/, src/serve/, src/fleet/,
# src/governor/, src/filter/, src/fusion/, and src/checkpoint/, then
# Release-mode builds of the filter hot-loop and adaptive-servo
# benchmarks, refreshing BENCH_filter_hotpath.json and
# BENCH_adaptive.json at the repo root. See docs/runtime.md,
# docs/perf.md, docs/observability.md, docs/adaptive.md,
# docs/fusion.md, and docs/checkpoint.md.
#
# Env knobs:
#   JOBS            parallel build jobs (default: nproc)
#   DKF_TSAN=0      skip the thread-sanitizer stage
#   DKF_SANITIZE    sanitizer list for the TSan stage (default: thread)
#   DKF_ASAN=0      skip the address+UB sanitizer stage
#   DKF_COVERAGE=0  skip the coverage-gate stage
#   DKF_BENCH=0     skip the Release benchmark stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SANITIZE="${DKF_SANITIZE:-thread}"

echo "== docs: intra-repo links + architecture coverage =="
python3 scripts/check_docs.py

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Builds and runs the tests carrying ctest label $2 in build tree $1. The
# stage lists live in tests/CMakeLists.txt; test names double as target
# names, so one label selects both what to build and what to run.
run_label() {
  local tree="$1" label="$2"
  local -a targets
  mapfile -t targets < <(ctest --test-dir "$tree" -N -L "^${label}\$" |
                         sed -n 's/^ *Test *#[0-9]*: //p')
  if [[ ${#targets[@]} -eq 0 ]]; then
    echo "no tests carry the '${label}' label" >&2
    exit 1
  fi
  cmake --build "$tree" -j "$JOBS" --target "${targets[@]}"
  ctest --test-dir "$tree" -L "^${label}\$" --output-on-failure
}

if [[ "${DKF_TSAN:-1}" == "0" ]]; then
  echo "== sanitizer stage skipped (DKF_TSAN=0) =="
else
  echo "== sanitizer (${SANITIZE}): runtime tests =="
  cmake -B "build-${SANITIZE//,/-}" -S . -DDKF_SANITIZE="$SANITIZE" >/dev/null
  run_label "build-${SANITIZE//,/-}" tsan
fi

if [[ "${DKF_ASAN:-1}" == "0" ]]; then
  echo "== asan/ubsan stage skipped (DKF_ASAN=0) =="
else
  echo "== asan+ubsan: fault-injection / protocol tests =="
  cmake -B build-asan -S . -DDKF_SANITIZE=address,undefined >/dev/null
  run_label build-asan asan
fi

if [[ "${DKF_COVERAGE:-1}" == "0" ]]; then
  echo "== coverage stage skipped (DKF_COVERAGE=0) =="
else
  echo "== coverage: src/obs + src/dsms + src/serve + src/fleet + src/governor + src/filter + src/fusion + src/checkpoint line-coverage floors =="
  cmake -B build-coverage -S . -DDKF_COVERAGE=ON >/dev/null
  # Fresh counters each run: .gcda files accumulate across executions.
  find build-coverage -name '*.gcda' -delete
  run_label build-coverage coverage
  python3 scripts/coverage_gate.py build-coverage --root=. \
    --gate=src/obs=0.90 --gate=src/dsms=0.80 --gate=src/serve=0.98 \
    --gate=src/fleet=0.85 --gate=src/governor=0.85 --gate=src/filter=0.90 \
    --gate=src/fusion=0.85 --gate=src/checkpoint=0.95
fi

if [[ "${DKF_BENCH:-1}" == "0" ]]; then
  echo "== benchmark stage skipped (DKF_BENCH=0) =="
else
  echo "== release bench: filter hot path + adaptive servo =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$JOBS" \
    --target bench_filter_hotpath bench_adaptive
  ./build-release/bench/bench_filter_hotpath > BENCH_filter_hotpath.json
  ./build-release/bench/bench_adaptive > BENCH_adaptive.json
  # Surface the numbers; compare against the committed snapshot with
  #   git stash -- BENCH_filter_hotpath.json  (or git show HEAD:...)
  #   scripts/bench_compare.py <old> BENCH_filter_hotpath.json
  cat BENCH_filter_hotpath.json
  cat BENCH_adaptive.json
fi

echo "== all checks passed =="
