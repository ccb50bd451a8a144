#!/usr/bin/env python3
"""Check that the benchmark is steady, and record a baseline.

Runs the command of BENCHMARK.json once per seed on each workload,
untraced, and reports for every end-to-end metric its median and its
spread: the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``). A spread above
the metric's bound, or any run that fails its checks, makes the exit
status nonzero.

Run from the repository root:

    python3 perfbench/stability.py                      # 10 seeds, all workloads
    python3 perfbench/stability.py --runs 5 --workloads interp-count
    python3 perfbench/stability.py --baseline perfbench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma list (default: all)")
    parser.add_argument("--baseline", help="write medians and spreads to this JSON file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [w for w in names if w in args.workloads.split(",")]

    ok = True
    baseline = {
        "machine": {
            "cores": os.cpu_count(),
            "cpu": cpu_model(),
            "system": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": args.runs,
        "workloads": {},
    }
    for workload in names:
        values = {}
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"{workload}: {args.runs} runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<18} median {med:<14.6g} spread {spread:.4f} (bound {bound}){flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
            rows[name] = {"median": med, "spread": round(spread, 4), "values": vals}
        baseline["workloads"][workload] = rows
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
