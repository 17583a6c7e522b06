"""The benchmark's workloads: set-up, measured pipeline runs and output checks.

Every workload runs in its own process from one client thread.  The package
is driven only through its CLI entry point and its public functions, always
looked up on the module at call time so that a traced run can wrap them.
Input generation and set-up run in a child process, so that the measured
process's peak memory belongs to the pipeline runs.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracle
import rexfuse
import rexfuse.cli
import spans

ML = ["--format", "movielens100k"]
# Epoch counts are run length.  lr 0.02 reaches the C8 quality bar in 5 MF
# epochs, and each SGD step costs the same at any learning rate.
MF_FLAGS = ["--epochs", "5", "--lr", "0.02"]
HYBRID_FLAGS = ["--epochs", "1", "--lr", "0.02"]
# rank_serve's users have few ratings each; a larger step gives its served
# model rankings that vary less from seed to seed.
SERVED_MODEL_FLAGS = ["--epochs", "1", "--lr", "0.05"]
SWEEP_SHAPE = dict(n_users=943, n_items=1682, n_ratings=100_000)
SERVE_SHAPE = dict(n_users=6040, n_items=3706, n_ratings=200_000)
TAIL = dict(exponent=1.2, single_share=0.10, textless_share=0.08)
REQUESTS = 2000  # recommend_for_user requests per rank_serve pipeline run
DATASET_SEED_STEP = 10_000  # dataset seeds of one run are seed, seed + step, ...
MF_RMSE_BAR = 0.9  # model RMSE must be at most this share of the mean baseline


class Tally:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, note):
        self.failed += 1
        self.notes.append(note)

    def check(self, problems, checked=1):
        """Count ``checked`` output checks, of which ``problems`` lists the failures."""
        self.attempted += checked
        self.failed += min(len(problems), checked)
        self.notes.extend(problems)

    def call(self, what, fn, *args, **kwargs):
        """Run one package operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark reports the failure and goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, argv):
        """Run ``rexfuse.cli.main`` in-process; a nonzero exit is a failure."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.call(f"cli {argv[0]}", rexfuse.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        if code not in (0, None):
            self.fail(f"cli {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code == 0


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_split(tally, ratings, seed):
    """The train/test split the CLI builds from the same file and seed."""
    interactions = tally.call("load_interactions", rexfuse.load_interactions, ratings, "movielens100k")
    if interactions is None:
        return None
    return tally.call("build_dataset", rexfuse.build_dataset, interactions, seed)


def split_arrays(dataset):
    train = (dataset.train.users, dataset.train.items)
    test = (dataset.test.users, dataset.test.items, dataset.test.ratings)
    return train, test


def make_requests(dataset, seed, n):
    """Seeded (user id, include_cold) requests; every second one includes cold items."""
    rng = np.random.default_rng([seed, 2])
    ids = dataset.users.ids
    return [(ids[u], j % 2 == 1) for j, u in enumerate(rng.integers(0, len(ids), n).tolist())]


def serve(tally, model_path, dataset, requests):
    """The read path: load_bundle, evaluate_model, then closed-loop requests."""
    clock = time.perf_counter
    t0 = clock()
    bundle = tally.call("load_bundle", rexfuse.load_bundle, model_path)
    t1 = clock()
    if bundle is None:
        return None
    report = tally.call(
        "evaluate_model", rexfuse.evaluate_model, bundle.model, dataset, rexfuse.EvalConfig()
    )
    t2 = clock()
    latencies, answers = [], []
    for uid, cold in requests:
        start = clock()
        rows = tally.call(
            "recommend_for_user",
            rexfuse.recommend_for_user,
            bundle.model,
            bundle.users.index(uid),
            oracle.K,
            bundle.item_train_counts,
            include_cold=cold,
        )
        latencies.append(clock() - start)
        answers.append((uid, cold, rows))
    return {
        "load_s": t1 - t0,
        "eval_s": t2 - t1,
        "report": report.to_dict() if report is not None else None,
        "latencies": latencies,
        "answers": answers,
        "wall_s": clock() - t0,
    }


def serving_figures(runs, users):
    """Load time, evaluation rate over ``users`` and request latency over
    repeated serve runs."""
    lat = sorted(x for r in runs for x in r["latencies"])
    return {
        "model_load_s": (statistics.median(r["load_s"] for r in runs), "s"),
        "eval_users_per_s": (statistics.median(users / r["eval_s"] for r in runs), "1/s"),
        "recommend_p50_ms": (1e3 * statistics.median(lat), "ms"),
        # the highest sample with ten beyond it
        "recommend_tail_ms": (1e3 * lat[-11], "ms"),
        "recommend_tail_pct": (100.0 * (len(lat) - 10) / len(lat), "%"),
        "recommend_samples": (len(lat), "count"),
    }


QUALITY = {"rmse": "rmse", "precision_at_10": "precision", "recall_at_10": "recall",
           "coverage_at_10": "coverage"}


def quality(reports):
    """Ranking quality and RMSE, each the mean over the given reports."""
    return {name: statistics.fmean(r[key] for r in reports) for name, key in QUALITY.items()}


class Workload:
    """``generate`` writes the inputs, ``setup`` is the package's timed set-up
    work, ``run`` is one measured pipeline run and ``check`` verifies every
    output once the runs are done.

    ``DATASETS`` pipeline runs, each on inputs and a split of its own seed,
    give the quality figures (their mean); later runs repeat them in turn.
    """

    DATASETS = 1
    SETUPS = 7  # timed set-ups per benchmark run; setup_s is their median

    def __init__(self, workdir, seed, tally):
        self.dir = Path(workdir)
        self.seed = seed
        self.tally = tally
        self.outputs = {}  # dataset number -> outputs of its runs
        self.inputs = {}
        self.tracing = False
        self.splits = None
        self.paths()

    def dataset_seeds(self):
        return [self.seed + DATASET_SEED_STEP * k for k in range(self.DATASETS)]

    def ratings_file(self, k):
        return self.ratings

    def setup(self):
        """Ingest the split the oracles compare against; part of every set-up."""
        return load_split(self.tally, self.ratings_file(0), self.seed)

    def save_splits(self, dataset):
        """Write the oracle split of every dataset for the measuring process."""
        splits = {0: dataset}
        for k, seed in enumerate(self.dataset_seeds()[1:], 1):
            interactions = rexfuse.load_interactions(self.ratings_file(k), "movielens100k")
            splits[k] = rexfuse.build_dataset(interactions, seed)
        with open(self.dir / "splits.pkl", "wb") as fh:
            pickle.dump(splits, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def load_splits(self):
        if self.splits is None:
            with open(self.dir / "splits.pkl", "rb") as fh:
                self.splits = pickle.load(fh)
        return self.splits

    def ready(self):
        """Anything the pipeline runs need from set-up, loaded before measuring."""

    def record(self, index, output):
        self.outputs.setdefault(index % self.DATASETS, []).append(output)

    def describe_split(self, texts_path=None):
        dataset = self.load_splits()[0]
        counts = dataset.item_train_counts()
        self.inputs.update(
            users=dataset.n_users,
            items=dataset.n_items,
            ratings=len(dataset.train) + len(dataset.validation) + len(dataset.test),
            cold_item_share=float(np.mean(counts == 0)),
        )
        if texts_path is not None:
            with open(texts_path, encoding="utf-8") as fh:
                with_text = sum(1 for _ in fh)
            self.inputs["textless_share"] = 1.0 - with_text / dataset.n_items

    def check_report(self, report, model_path, k=0):
        dataset = self.load_splits()[k]
        train, test = split_arrays(dataset)
        model = oracle.ModelFile(model_path)
        self.tally.check(oracle.check_report(report, model, train, test, dataset.items.ids))

    def check(self):
        """Check every output; returns the quality figures."""
        for outputs in self.outputs.values():
            self.check_repeats(outputs)
        return quality([self.checked_report(k, self.outputs[k][0]) for k in range(self.DATASETS)])

    def check_repeats(self, outputs):
        differs = any(out != outputs[0] for out in outputs[1:])
        self.tally.check(["repeated pipeline runs gave different outputs"] if differs else [])


class MfTrain(Workload):
    """CLI ``train --mode mf`` then CLI ``evaluate`` on the uniform stand-in.

    One dataset's ranking figures vary by up to a fifth from seed to seed
    (a handful of high-bias items carry most hits), so each run cycles
    through four datasets and reports their mean.
    """

    DATASETS = 4

    def paths(self):
        self.ratings = [str(self.dir / f"u-{k}.data") for k in range(self.DATASETS)]

    def ratings_file(self, k):
        return self.ratings[k]

    def generate(self):
        for path, seed in zip(self.ratings, self.dataset_seeds()):
            gen.write_uniform_ratings(path, seed)

    def run(self, index):
        k = index % self.DATASETS
        data = ["--data", self.ratings[k], *ML]
        model, report = self.dir / f"mf-{k}.json", self.dir / f"report-{k}.json"
        start = time.perf_counter()
        self.tally.cli(["train", *data, "--mode", "mf", *MF_FLAGS,
                        "--seed", str(self.dataset_seeds()[k]), "--out", str(model)])
        self.tally.cli(["evaluate", "--model", str(model), *data, "--json", str(report)])
        wall = time.perf_counter() - start
        self.record(index, (file_digest(model), report.read_text(encoding="utf-8")))
        return wall

    def checked_report(self, k, output):
        report = json.loads(output[1])
        self.check_report(report, self.dir / f"mf-{k}.json", k)
        dataset = self.load_splits()[k]
        baseline = oracle.mean_baseline_rmse(dataset.train.ratings, dataset.test.ratings)
        above = not report["rmse"] <= MF_RMSE_BAR * baseline
        self.tally.check([f"rmse {report['rmse']} above {MF_RMSE_BAR} x {baseline}"] if above else [])
        return report

    def check(self):
        self.describe_split()
        return super().check()


class HybridSweep(Workload):
    """CLI ``sweep --alphas 0,0.5`` on long-tail ratings with item text."""

    ALPHAS = ("0", "0.5")

    def paths(self):
        self.ratings = str(self.dir / "ratings.data")
        self.texts = str(self.dir / "items.jsonl")
        self.result = self.dir / "sweep.json"

    def generate(self):
        gen.write_longtail(self.ratings, self.texts, self.seed, **SWEEP_SHAPE, **TAIL)

    def train_flags(self):
        return ["--data", self.ratings, *ML, "--item-text", self.texts, *HYBRID_FLAGS,
                "--seed", str(self.seed)]

    def run(self, index):
        start = time.perf_counter()
        self.tally.cli(["sweep", *self.train_flags(), "--alphas", ",".join(self.ALPHAS),
                        "--json", str(self.result)])
        wall = time.perf_counter() - start
        self.record(index, self.result.read_text(encoding="utf-8"))
        return wall

    def checked_report(self, k, output):
        rows = {row["alpha"]: row for row in json.loads(output)}
        # The sweep keeps no model, so train each alpha again with the same
        # CLI flags and check the sweep's row against that model.
        for alpha in self.ALPHAS:
            path = str(self.dir / f"hybrid-{alpha}.json")
            self.tally.cli(["train", *self.train_flags(), "--mode", "hybrid", "--alpha", alpha,
                            "--out", path])
            self.check_report(rows[float(alpha)], path)
        return rows[0.5]

    def check(self):
        self.describe_split(self.texts)
        return super().check()


class RankServe(Workload):
    """Load a saved hybrid model, evaluate every eligible user, serve requests."""

    SETUPS = 3  # each one trains the served model

    def paths(self):
        self.ratings = str(self.dir / "ratings.data")
        self.texts = str(self.dir / "items.jsonl")
        self.model = str(self.dir / "hybrid.json")

    def generate(self):
        gen.write_longtail(self.ratings, self.texts, self.seed, **SERVE_SHAPE, **TAIL)

    def setup(self):
        self.tally.cli(["train", "--data", self.ratings, *ML, "--item-text", self.texts,
                        "--mode", "hybrid", "--alpha", "0.5", *SERVED_MODEL_FLAGS,
                        "--seed", str(self.seed), "--out", self.model])
        return super().setup()

    def ready(self):
        self.dataset = self.load_splits()[0]
        self.requests = make_requests(self.dataset, self.seed, REQUESTS)
        self.served = {False: [], True: []}  # timings by tracing
        self.first = None  # (report, answers) of the first run

    def run(self, index):
        result = serve(self.tally, self.model, self.dataset, self.requests)
        outputs = (result.pop("report"), result.pop("answers"))
        if self.first is None:
            self.first = outputs
        else:  # compared now, so that memory does not grow with the repeats
            self.check_repeats([self.first, outputs])
        self.served[self.tracing].append(result)
        return result["wall_s"]

    def check(self):
        self.describe_split(self.texts)
        report, answers = self.first
        self.check_report(report, self.model)
        model = oracle.ModelFile(self.model)
        self.tally.check(oracle.check_recommendations(model, answers), checked=len(answers))
        return quality([report])


WORKLOADS = {"mf_train": MfTrain, "hybrid_sweep": HybridSweep, "rank_serve": RankServe}


def prepare(name, workdir, seed):
    """Write the inputs, then time the workload's ``SETUPS`` set-ups; runs in
    a child process.

    Input generation is the benchmark's own work and stays out of the times.
    The oracle splits go to a file; returns the set-up times and the tally's
    counts and notes.
    """
    tally = Tally()
    workload = WORKLOADS[name](workdir, seed, tally)
    workload.generate()
    times = []
    for _ in range(workload.SETUPS):
        gc.collect()
        start = time.perf_counter()
        dataset = workload.setup()
        times.append(time.perf_counter() - start)
    if tally.failed:
        raise RuntimeError("set-up failed: " + "; ".join(tally.notes[:5]))
    workload.save_splits(dataset)
    return times, tally.attempted, tally.notes


def prepare_in_child(name, workload):
    """Run ``prepare`` in a fresh process, with the package this process
    imported; returns the set-up times."""
    src = str(Path(rexfuse.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, __file__, name, str(workload.dir), str(workload.seed)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        raise RuntimeError(f"set-up process: {lines[-1]}")
    times, attempted, notes = json.loads(proc.stdout.strip().splitlines()[-1])
    workload.tally.attempted += attempted
    workload.tally.notes.extend(notes)
    return times


def measure(workload, seconds, trace, tracer):
    """Repeat pipeline runs while the next is expected to end within
    ``seconds``, and at least once per dataset; with ``trace`` a traced run
    follows each."""
    untraced, traced = [], []
    start = time.perf_counter()
    step = 0.0  # time of the last repeat, traced run included
    while len(untraced) < workload.DATASETS or time.perf_counter() - start + step <= seconds:
        step_start = time.perf_counter()
        index = len(untraced)
        gc.collect()
        untraced.append(workload.run(index))
        if trace:
            gc.collect()
            run_id = f"run{len(traced)}"
            tracer.install(run_id)
            workload.tracing = True
            try:
                wall = workload.run(index)
            finally:
                workload.tracing = False
                tracer.uninstall()
            traced.append((run_id, wall))
        step = time.perf_counter() - step_start
    return untraced, traced


def run(name, workdir, seed, seconds, trace):
    """One benchmark run; returns (result, info, tracer)."""
    tally = Tally()
    workload = WORKLOADS[name](workdir, seed, tally)
    tracer = spans.Tracer()
    try:
        setup_times = prepare_in_child(name, workload)
        workload.ready()
        untraced, traced = measure(workload, seconds, trace, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = workload.check()
    except Exception as exc:  # a failing program can leave set-up or outputs missing
        tally.check([f"{name}: {type(exc).__name__}: {exc}"])
        return {"correct": False, "attempted": tally.attempted, "failed": tally.failed,
                "metrics": {}}, {"notes": tally.notes[:20]}, tracer
    e2e = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.fmean(untraced),
        "peak_rss_mb": peak_rss_mb,
        **figures,
    }
    info = {
        "inputs": workload.inputs,
        "pipeline_runs_s": untraced,
        "setup_runs_s": setup_times,
        "notes": tally.notes[:20],
    }
    if name == "rank_serve":
        serving = serving_figures(workload.served[False], workload.first[0]["n_users_evaluated"])
        info["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in serving.items()}
    if trace:
        per_run = [spans.layer_metrics(tracer.run_spans(run_id), tracer.available, wall)
                   for run_id, wall in traced]
        metrics = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(wall for _, wall in traced) / e2e["pipeline_s"] - 1.0
        )
    else:
        metrics = e2e
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, info, tracer


if __name__ == "__main__":
    # The set-up process: ``workloads.py <workload> <workdir> <seed>``.
    print(json.dumps(prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
