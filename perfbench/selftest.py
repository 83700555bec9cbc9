#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (under a minute).

Checks that
  * every workload's untraced run prints every end-to-end metric of
    BENCHMARK.json in its result line with the declared unit, plus the full
    end-to-end set of the benchmark doc as "# name value unit" lines;
  * every workload's traced run prints every per-layer metric with its
    unit and writes a non-empty span file;
  * the correctness oracle counts a failure for a wrong answer, a
    1-vs-4-shard mismatch, and a post-restore mismatch (perfbench
    --oracle-selftest);
  * the command exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.

  python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark command, for its tables)

problems = []


def check(ok, what):
    print(f"selftest: {what:<64} {'ok' if ok else 'FAILED'}")
    if not ok:
        problems.append(what)


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    printed = {}
    for line in lines:
        if line.startswith("# "):
            name, _, unit = line[2:].split()
            printed[name] = unit
    return done.returncode, result, printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in [w["name"] for w in bench["workloads"]]:
        code, result, printed = run_tiny(workload, 0)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: untraced run is correct")
        if result is None:
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{workload}: result line has exactly the contract keys")
        check(result["attempted"] >= 1 and result["failed"] == 0,
              f"{workload}: operations attempted, none failed")
        for metric in bench["end_to_end"]:
            got = result["metrics"].get(metric["name"], {})
            check(got.get("unit") == metric["unit"] and got.get("value"),
                  f"{workload}: {metric['name']} [{metric['unit']}] non-zero")
        for name, unit in run.END_TO_END:
            if name == "recover_s" and workload != "churn_links":
                continue  # only the checkpointing workload recovers
            check(printed.get(name) == unit,
                  f"{workload}: prints {name} [{unit}]")

        code, result, _ = run_tiny(workload, 1)
        check(code == 0 and result is not None and result["correct"],
              f"{workload}: traced run is correct")
        if result is None:
            continue
        for metric in bench["per_layer"]:
            got = result["metrics"].get(metric["name"], {})
            check(got.get("unit") == metric["unit"],
                  f"{workload}: {metric['name']} [{metric['unit']}]")
        spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}.jsonl")
        check(os.path.exists(spans) and os.path.getsize(spans) > 0,
              f"{workload}: span file written")

    binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    done = subprocess.run([binary, "--oracle-selftest"], cwd=ROOT,
                          capture_output=True, text=True)
    print(done.stdout, end="")
    check(done.returncode == 0, "oracle counts each deliberate fault")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "fails without a result when the library sources are absent")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
