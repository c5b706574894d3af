#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see kvbench/NOTES.md).

    python3 kvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds kvbench/ (which compiles ../src in the
repository's default configuration) into .bench_build/kvbench, runs the
benchmark's self-tests, then one measured run. Prints the run's report and,
as the last line, one JSON object with the keys correct, attempted, failed and
metrics; the metrics are BENCHMARK.json's end_to_end set with --trace 0 and
its per_layer set with --trace 1. Exits non-zero, without that line, when the
build, the self-tests or the run fail.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "kvbench")
BUILD = os.path.join(ROOT, ".bench_build", "kvbench")
OUT = os.path.join(ROOT, ".bench_build", "kvbench-out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        cmd = ["cmake", "-S", SRC, "-B", BUILD, "-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"kvbench: cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        log("kvbench: build failed")
        return 1
    if subprocess.run([os.path.join(BUILD, "kvbench_test")], stdout=sys.stderr).returncode != 0:
        log("kvbench: self-tests failed; not measuring")
        return 1

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "kvbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    # Own process group, so a timeout also stops the server and ladder
    # children the run started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log("kvbench: run timed out")
        return 1
    stop_group(proc.pid)  # nothing should be left; make sure
    metrics, result = {}, None
    for line in stdout.splitlines():
        print(line)
        parts = line.split()
        if parts[:1] == ["METRIC"] and len(parts) == 5:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts[:1] == ["RESULT"]:
            result = dict(p.split("=", 1) for p in parts[1:])
    if proc.returncode != 0 or result is None:
        log(f"kvbench: run failed (exit {proc.returncode})")
        return proc.returncode or 1

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"kvbench: metrics not measured: {', '.join(missing)}")
        return 1
    out = {
        "correct": result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
