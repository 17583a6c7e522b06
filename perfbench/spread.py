#!/usr/bin/env python3
"""Run the workloads of BENCHMARK.json over several seeds and report each
metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Each (workload, seed) pair runs in its own process, one after another, with
``--trace 0``.  The spread of a metric is the distance between the first
and third quartile of its values (``statistics.quantiles(values, n=4)``)
over their median.  A spread above a third of the metric's bound is marked
``!``.  ``--out`` also records the machine and the commit measured, and
``--traced`` adds one ``--trace 1`` run per workload (first seed) with its
per-layer metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=run.ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git("rev-parse", "HEAD"),
        "src_dirty": None if dirty is None else bool(dirty),
    }


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "bound": bound,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary and environment as JSON")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    spec = run.spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            info, result = run.child(workload, seed, seconds, 0)
            runs.append((seed, info, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, _, r in runs if name in r["metrics"]]
            if len(values) == len(runs):
                metrics[name] = summarize(values, bound)
                metrics[name]["unit"] = runs[0][2]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for _, _, r in runs),
            "attempted": sum(r["attempted"] for _, _, r in runs),
            "failed": sum(r["failed"] for _, _, r in runs),
            "inputs": {seed: info["inputs"] for seed, info, _ in runs},
            "figures": {
                name: summarize([info["figures"][name]["value"] for _, info, _ in runs], None)
                for name in runs[0][1].get("figures", {})
            },
            "metrics": metrics,
        }
        if args.traced:
            seed = parse_seeds(args.seeds)[0]
            _, traced = run.child(workload, seed, seconds, 1)
            summary["workloads"][workload]["per_layer"] = {
                "seed": seed, "correct": traced["correct"],
                **{k: m["value"] for k, m in traced["metrics"].items()},
            }
        print(f"== {workload}: {len(runs)} seeds, all correct: "
              f"{summary['workloads'][workload]['correct']}")
        for name, m in metrics.items():
            flag = "!" if name != "setup_s" and m["spread"] > m["bound"] / 3 else " "
            print(f"  {name:<20} median {m['median']:>12.6g} {m['unit']:<7} "
                  f"spread {m['spread']:7.4f} {flag} bound {m['bound']}")
        for name, m in summary["workloads"][workload]["figures"].items():
            print(f"  {name:<20} median {m['median']:>12.6g}         spread {m['spread']:7.4f}"
                  "   (not bounded)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
