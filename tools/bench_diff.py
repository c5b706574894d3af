#!/usr/bin/env python3
"""Compares two checked-in kvbench snapshots (bench/results/<n>.json).

    python3 tools/bench_diff.py A.json B.json

A snapshot holds, per workload, the host fingerprint and the last line of
`python3 kvbench/run.py --workload <w> --seed <s> --seconds <t> --trace 1`:

    {"command": "...",
     "workloads": {"kv_get": {"fingerprint": "host cpus=4 ...",
                              "result": {"correct": true, ..., "metrics": {...}}}}}

For every workload and metric present in both files it prints A, B and B/A.
A metric `m` that has a recorded `m.spread` (the ladder's relative spread)
is flagged when |B/A - 1| exceeds the larger of the two files' spreads; a
flag says the change is larger than the noise the rung itself measured, and
nothing more. Differing host fingerprints are printed first, since ratios
across hosts mean little. The script only reports: it always exits 0.
"""
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f).get("workloads", {})
    except (OSError, ValueError, AttributeError) as e:
        print(f"bench_diff: cannot read {path}: {e}")
        return {}


def values(result):
    metrics = result.get("metrics", {}) if isinstance(result, dict) else {}
    return {k: v.get("value") for k, v in metrics.items() if isinstance(v, dict)}


def diff_workload(name, a, b):
    print(f"== {name}")
    if a.get("fingerprint") != b.get("fingerprint"):
        print(f"   fingerprint A: {a.get('fingerprint')}")
        print(f"   fingerprint B: {b.get('fingerprint')}")
    va, vb = values(a.get("result")), values(b.get("result"))
    flagged = 0
    for metric in sorted(va.keys() & vb.keys()):
        if metric.endswith(".spread"):
            continue
        x, y = va[metric], vb[metric]
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            continue
        ratio = y / x if x != 0 else (1.0 if y == 0 else float("inf"))
        spreads = [s for s in (va.get(metric + ".spread"), vb.get(metric + ".spread"))
                   if isinstance(s, (int, float))]
        flag = ""
        if spreads and abs(ratio - 1) > max(spreads):
            flag = f"  <- beyond spread {max(spreads):.3f}"
            flagged += 1
        print(f"   {metric:40s} {x:14.6g} {y:14.6g}  x{ratio:.3f}{flag}")
    print(f"   {flagged} rung(s) changed by more than their spread")


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/bench_diff.py A.json B.json")
        return
    a, b = load(argv[1]), load(argv[2])
    for name in sorted(a.keys() | b.keys()):
        if name in a and name in b:
            diff_workload(name, a[name], b[name])
        else:
            print(f"== {name}: only in {'A' if name in a else 'B'}")


if __name__ == "__main__":
    try:
        main(sys.argv)
    except Exception as e:  # a malformed snapshot is reported, never fatal
        print(f"bench_diff: {type(e).__name__}: {e}")
    sys.exit(0)
