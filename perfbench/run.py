#!/usr/bin/env python3
"""Repo benchmark: builds ctbench from this checkout and runs one workload.

Usage (from the root of the checkout):
  python3 perfbench/run.py --workload live-k4 --seed 1 --seconds 30 --trace 0

Workloads: live-k4, replay-k16 (see perfbench/README.md).
The program is compiled from ../src into .bench_build/perfbench on the
first run. The last line of stdout is the result object:
  {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run, whose Chrome trace is written next to the build
and checked with tools/trace_check.py when the checkout has it.

Exit status: 0 with a result, 1 when the build or the run fails, 2 on
usage errors.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("live-k4", "replay-k16")
# The benches' CTS_SEED default.
DEFAULT_SEED = 2017
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "--target", "ctbench", "-j", jobs]
    log_path = os.path.join(BUILD, "build.log")
    for cmd in ([compile_] if os.path.exists(cache) else [configure, compile_]):
        with open(log_path, "w") as log:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT).returncode
        if code != 0:
            with open(log_path) as log:
                sys.stderr.write(log.read()[-4000:])
            if cmd is configure and os.path.exists(cache):
                # Else the next run would skip the failed configure.
                os.remove(cache)
            die(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "ctbench")


def ctbench(exe, flags):
    try:
        proc = subprocess.run([exe] + flags, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"ctbench {' '.join(flags)} timed out")
    if proc.returncode != 0:
        die(f"ctbench {' '.join(flags)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("ctbench printed nothing")
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def check_trace(path):
    checker = os.path.join(ROOT, "tools", "trace_check.py")
    if not os.path.exists(checker):
        return "unavailable"
    try:
        proc = subprocess.run([sys.executable, checker, path],
                              stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "failed"
    return "ok" if proc.returncode == 0 else "failed"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    flags = [f"--workload={args.workload}", f"--seed={args.seed}"]
    context = {"git": git_revision()}
    if args.trace == 1:
        trace_path = os.path.join(
            BUILD, f"trace-{args.workload}-seed{args.seed}.json")
        flags.append(f"--trace-out={trace_path}")
    lines, result = ctbench(exe, flags + [f"--seconds={args.seconds}",
                                          f"--trace={args.trace}"])
    if args.trace == 1:
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
        context["trace_check"] = check_trace(trace_path)

    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        die(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print("context: " + json.dumps(context))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
