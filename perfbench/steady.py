#!/usr/bin/env python3
"""Steadiness check for perfbench: are the end-to-end metrics repeatable?

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--seconds S]

Run from the repository root. For each workload it makes --sets sets of
--runs untraced runs (set k uses seeds 1000*k+1 .. 1000*k+runs, so every run
has its own seed and the second set is a second seed sample). For each
end-to-end metric and set it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
against the metric's bound in BENCHMARK.json, and across sets the drift of
the median in the metric's worse direction.

A metric passes when its spread stays within its bound (setup_s is exempt
from this) and no later set's median is worse than the first's by more than
the bound. The target for a steady benchmark is a spread under a third of
the bound; spreads above that are flagged. Exits 1 if any check fails. The
per-run figures are written to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited "
                 f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("record "):])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    log = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * k + i + 1
                metrics, record = run_once(workload, seed, args.seconds)
                runs.append(metrics)
                seg = record["segments"][0]
                print(f"{workload} set {k} seed {seed}: "
                      + " ".join(f"{n}={v:.6g}" for n, v in metrics.items())
                      + f" steal={record['steal_frac']:.4f}"
                      f" loadgen_cpu={seg['loadgen_cpu_frac']:.3f}"
                      f" window_held={seg['window_held']}", flush=True)
            sets.append(runs)
        log[workload] = sets

        print(f"\n{workload}: {args.sets} x {args.runs} runs of "
              f"{args.seconds:g} s")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            worse = 1 if m["better"] == "lower" else -1
            first = None
            for k, runs in enumerate(sets):
                median, q1, q3, spread = summarize([r[name] for r in runs])
                verdict = "ok"
                if spread > bound and name != "setup_s":
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3 and name != "setup_s":
                    verdict = "spread over bound/3"
                if first is None:
                    first = median
                elif first and worse * (median - first) / first > bound:
                    verdict, ok = "MEDIAN DRIFT OVER BOUND", False
                print(f"{name:<16} {k:>3} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.4f} {bound:>6}  {verdict}")
        print()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump(log, f, indent=1)
    print("steady: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
