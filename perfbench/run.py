#!/usr/bin/env python3
"""rexfuse benchmark.

    python3 perfbench/run.py --workload mf_train --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  The line before it, prefixed ``INFO``, holds the input
shape with its cold-item and text-less shares, figures that are reported
but not bounded (load time, evaluation rate and request latency on
rank_serve), the time of each set-up and pipeline run and any failure notes.
``--workload all`` runs every workload in its own process and prints all of
these by name and unit, with the oracle verdict and failed_ratio.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the measured code is single-threaded Python around small
# matrix products, and a fixed thread count keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOADS = ["mf_train", "hybrid_sweep", "rank_serve"]


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import rexfuse from this checkout's sources, never from elsewhere."""
    if not (SRC / "rexfuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'rexfuse'}")
    sys.path.insert(0, str(SRC))
    import rexfuse

    if Path(rexfuse.__file__).resolve().parent != (SRC / "rexfuse").resolve():
        sys.exit(f"perfbench: imported rexfuse from {rexfuse.__file__}, not from {SRC}")


def run_one(args):
    import_package()
    import workloads

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, info, tracer = workloads.run(
            args.workload, workdir, args.seed, args.seconds, args.trace
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
        if name in result["metrics"]
    }
    info["failed_ratio"] = result["failed"] / max(1, result["attempted"])
    print("INFO " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def child(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (info, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("INFO "):
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2][5:]), json.loads(lines[-1])


def run_all(args):
    """Print every metric of every workload by name and unit, with the oracle verdict."""
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    for workload in WORKLOADS:
        info, result = child(workload, args.seed, seconds, 0)
        verdict = "pass" if result["correct"] else "FAIL"
        print(f"== {workload} (seed {args.seed}): oracle {verdict}, "
              f"failed_ratio {info['failed_ratio']:.4g} "
              f"({result['failed']} failed / {result['attempted']} attempted)")
        figures = {**result["metrics"], **info.get("figures", {})}
        for name, m in figures.items():
            bounded = "" if name in result["metrics"] else "  (not bounded)"
            print(f"  {name:<20} {m['value']:>14.6g} {m['unit']}{bounded}")
        print(f"  inputs {json.dumps(info.get('inputs', {}))}")
        for note in info["notes"]:
            print(f"  failure: {note}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
