#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark.

Runs every workload N times, each run with its own seed, alternating the
workload order between rounds, and prints for each metric its median,
first and third quartile, the spread (q3 - q1) / median, and the bound
BENCHMARK.json fixes for it. A metric is steady when its spread is within
a third of its bound; setup_s is judged on its median only (set-up is
short, so its spread is reported but not held to the bound).

  python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--trace 0]
      [--first-seed 1] [--seconds S] [--json out.json]

Exits 1 when any spread exceeds its bound, or any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write every raw value here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end" if args.trace == 0 else "per_layer"]}
    values = {w: {} for w in workloads}
    failed_runs = 0
    seed = args.first_seed
    for round_index in range(args.runs):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            seed += 1
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failed_runs += 1
                print(f"run failed: {' '.join(command)}\n{done.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed_runs += 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"round {round_index + 1}/{args.runs} {workload} "
                  f"seed {seed - 1} done", file=sys.stderr)

    unsteady = 0
    print(f"{'workload':<14} {'metric':<36} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'spread':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for name, series in sorted(values[workload].items()):
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "median only"
                elif spread > bound:
                    verdict = "UNSTEADY"
                    unsteady += 1
                elif spread > bound / 3:
                    verdict = "within bound"
                else:
                    verdict = "steady"
            print(f"{workload:<14} {name:<36} {median:>13.6g} {q1:>13.6g} "
                  f"{q3:>13.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(values, handle, indent=1)
    return 1 if unsteady or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
