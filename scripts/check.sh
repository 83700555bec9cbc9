#!/usr/bin/env bash
# One-command verify, in five stages:
#   1. docs: intra-repo links, architecture coverage and bench names
#      (scripts/check_docs.py);
#   2. tier-1: build + the full ctest suite;
#   3. ThreadSanitizer: the tests labelled `tsan` (worker pool, shard
#      tick path, per-shard trace sinks and everything else that runs
#      shard workers concurrently);
#   4. ASan+UBSan: the tests labelled `asan` (fault injection, protocol
#      parsing, snapshot decoding, fleet/governor/servo/fusion churn);
#   5. coverage: a gcov build of the tests labelled `coverage`, gating
#      line coverage of src/obs/, src/dsms/, src/serve/, src/fleet/,
#      src/governor/, src/filter/, src/fusion/ and src/checkpoint/.
# The labels are set at the end of tests/CMakeLists.txt. Each stage
# builds into its own tree (build/, build-<sanitizer>/, build-coverage/),
# so the script writes to no tracked file. Performance is measured by
# perfbench (perfbench/README.md), not here.
#
# Env knobs:
#   JOBS            parallel build jobs (default: nproc)
#   DKF_TSAN=0      skip the thread-sanitizer stage
#   DKF_SANITIZE    sanitizer list for the TSan stage (default: thread)
#   DKF_ASAN=0      skip the address+UB sanitizer stage
#   DKF_COVERAGE=0  skip the coverage-gate stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SANITIZE="${DKF_SANITIZE:-thread}"

# Every stage must leave the working tree as it found it: build trees are
# ignored, and nothing here may rewrite a tracked file.
tree_state() { git status --porcelain 2>/dev/null || true; }
TREE_BEFORE="$(tree_state)"

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

if [[ "$(tree_state)" != "$TREE_BEFORE" ]]; then
  echo "check.sh changed the working tree:" >&2
  diff <(echo "$TREE_BEFORE") <(tree_state) >&2 || true
  exit 1
fi

echo "== all checks passed =="
