#!/usr/bin/env python3
"""Builds the library and the benchmark from source, then runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The build goes to .bench_build/perfbench (always Release); spans and
snapshots go to .bench_out. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; every measured metric
is also printed above it as "# <name> <value> <unit>". With --workload all
every workload runs untraced and a table of all end-to-end metrics follows.
Exits non-zero when the build fails or any operation failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["steady_fleet", "churn_links", "alert_serving"]

# The thirteen end-to-end metrics, in report order. The ones that are zero
# or absent on some workload (no subscriptions, no faults, no checkpoint)
# are printed here but left out of BENCHMARK.json, whose metrics must be
# present and non-zero on every workload.
END_TO_END = [
    ("source_ticks_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("cpu_ns_per_source_tick", "ns"),
    ("uplink_bytes_per_source_tick", "B"),
    ("downlink_msgs_per_ksource_tick", "msgs"),
    ("avg_error_over_delta", "ratio"),
    ("degraded_answer_ratio", "ratio"),
    ("notifications_per_s", "1/s"),
    ("bytes_per_source", "B"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("failed_op_ratio", "ratio"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_sha():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:") and \
                    line.strip().split("=", 1)[1] != "Release":
                fail("the benchmark build tree is not a Release build")


def run_one(workload, seed, seconds, trace, tiny, sha, echo=True):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", OUT, "--source-sha", sha]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if echo:
        sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result (exit code {done.returncode})")
    measured = {}
    for line in lines:
        if line.startswith("# "):
            name, value, unit = line[2:].split()
            measured[name] = (float(value), unit)
    return done.returncode, json.loads(lines[-1]), measured


def run_all(args, sha):
    """Every workload, untraced, then one table of the end-to-end set."""
    table = {}
    attempted = failed = 0
    worst = 0
    combined = {}
    for workload in WORKLOADS:
        code, result, measured = run_one(workload, args.seed, args.seconds,
                                         0, args.tiny, sha, echo=False)
        worst = max(worst, code)
        attempted += result["attempted"]
        failed += result["failed"]
        table[workload] = measured
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    width = max(len(name) for name, _ in END_TO_END)
    print(f"{'metric':<{width}}  {'unit':<6}" +
          "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in END_TO_END:
        cells = []
        for workload in WORKLOADS:
            value = table[workload].get(name)
            cells.append(f"{value[0]:>16.6g}" if value else f"{'absent':>16}")
        print(f"{name:<{width}}  {unit:<6}" + "".join(cells))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 1 if failed or worst else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    build()
    os.makedirs(OUT, exist_ok=True)
    sha = source_sha()
    if args.workload == "all":
        return run_all(args, sha)
    code, _, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.tiny, sha)
    return code


if __name__ == "__main__":
    sys.exit(main())
