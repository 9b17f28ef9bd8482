#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build tree is $CARGO_TARGET_DIR/perfbench
($CARGO_TARGET_DIR defaults to .bench_build); an up-to-date tree rebuilds in
about a second. Traced runs write their spans to .bench_out/.

setup_s is the median over SETUP_REPS process launches: SETUP_REPS - 1
set-up-only launches, then the measured run's own set-up.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
result record (host and build fingerprint, load-generator sanity, failure
counters). Build output and diagnostics go to standard error. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
BUILD_TIMEOUT_S = 700
RUN_DEADLINE_S = 170  # per invocation of this script, after the build


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (src/CMakeLists.txt)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "-j", jobs])
    return os.path.join(build_dir, "perfbench")


def step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def launch(cmd, deadline):
    """Runs the driver; returns its stdout lines."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before launching the driver")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed nothing")
    return lines


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for _ in range(SETUP_REPS - 1):
        line = launch(base + ["--setup-only"], deadline)[-1]
        setup.append(json.loads(line)["setup_s"])

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir,
                             f"trace-{args.workload}-{args.seed}.json")]
    lines = launch(cmd, deadline)
    result = json.loads(lines[-1])
    record_line = next((l for l in lines if l.startswith("record ")), None)
    if record_line is None:
        fail("driver printed no result record")
    record = json.loads(record_line[len("record "):])

    setup.append(record["end_to_end"]["setup_s"]["value"])
    setup_s = statistics.median(setup)
    record["end_to_end"]["setup_s"]["value"] = setup_s
    record["setup_s_samples"] = setup
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = setup_s

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(got)} vs "
             f"{sorted(want)}")

    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
