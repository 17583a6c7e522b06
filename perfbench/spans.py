"""Layer spans recorded from outside the package.

A traced run replaces module attributes of the package with wrappers that
record a span per call: name, start, end, parent span and run id.  Spans
stay in memory until the benchmark writes them out at the end.  A patch
point whose attribute no longer exists is skipped, and every metric that
needs its span is then reported as absent instead of failing the run.
"""

import importlib
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name).  The package imports functions by name, so
# each caller's module is patched; the benchmark's own library calls go
# through the top-level ``rexfuse`` attributes.
PATCH_POINTS = [
    ("rexfuse.cli", "main", "cli.main"),
    ("rexfuse", "load_interactions", "dataset.load_interactions"),
    ("rexfuse.cli", "load_interactions", "dataset.load_interactions"),
    ("rexfuse", "build_dataset", "dataset.build_dataset"),
    ("rexfuse.cli", "build_dataset", "dataset.build_dataset"),
    ("rexfuse.cli", "load_item_text", "dataset.load_item_text"),
    ("rexfuse.cli", "embed_corpus", "semantic.embed_corpus"),
    ("rexfuse.hybrid", "embed_corpus", "semantic.embed_corpus"),
    ("rexfuse.cli", "train_mf", "mf.train"),
    ("rexfuse.mf", "loss_regularized", "mf.loss"),
    ("rexfuse.cli", "train_hybrid", "hybrid.train"),
    ("rexfuse.evaluate", "train_hybrid", "hybrid.train"),
    ("rexfuse.hybrid", "loss_regularized", "hybrid.loss"),
    ("rexfuse.cli", "sweep_alpha", "evaluate.sweep_alpha"),
    ("rexfuse", "evaluate_model", "evaluate.evaluate_model"),
    ("rexfuse.cli", "evaluate_model", "evaluate.evaluate_model"),
    ("rexfuse.evaluate", "evaluate_model", "evaluate.evaluate_model"),
    ("rexfuse.evaluate", "topk", "evaluate.topk"),
    ("rexfuse.evaluate", "rmse", "evaluate.rmse"),
    ("rexfuse", "recommend_for_user", "evaluate.recommend"),
    ("rexfuse.cli", "recommend_for_user", "evaluate.recommend"),
    ("rexfuse", "save_bundle", "persist.save"),
    ("rexfuse.cli", "save_bundle", "persist.save"),
    ("rexfuse", "load_bundle", "persist.load"),
    ("rexfuse.cli", "load_bundle", "persist.load"),
]

LAYERS = ["cli", "dataset", "semantic", "mf", "hybrid", "evaluate", "persist"]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _work(dataset, config):
    return len(dataset.train) * config.epochs


def _topk_notes(args, kwargs, result):
    exclude = kwargs.get("exclude", args[3] if len(args) > 3 else ())
    n_items = kwargs.get("n_items", args[4] if len(args) > 4 else None) or args[0].n_items
    return {"items_scored": n_items - len(exclude), "kept": len(result)}


# Counts taken at the boundary: span name -> f(args, kwargs, result) -> dict.
NOTES = {
    "dataset.load_interactions": lambda a, kw, r: {"rows": len(r)},
    "semantic.embed_corpus": lambda a, kw, r: {"items": len(r)},
    "mf.train": lambda a, kw, r: {
        "interactions": _work(_arg(a, kw, 0, "dataset"), _arg(a, kw, 1, "config")),
    },
    "hybrid.train": lambda a, kw, r: {
        "interactions": _work(_arg(a, kw, 0, "dataset"), _arg(a, kw, 2, "config")),
        "alpha": float(_arg(a, kw, 3, "alpha")),
    },
    "evaluate.topk": _topk_notes,
    "persist.save": lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))},
    "persist.load": lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))},
}


class Tracer:
    """Installs the wrappers, collects spans, and restores the package."""

    def __init__(self):
        self.spans = []
        self.available = set()
        self._open = []
        self._saved = []
        self._run_id = None

    def install(self, run_id):
        self._run_id = run_id
        for module_name, attr, name in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
            self.available.add(name)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name, fn):
        notes = NOTES.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self._run_id,
                "parent": self._open[-1]["id"] if self._open else None,
            }
            self.spans.append(span)
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if notes is not None:
                try:
                    span.update(notes(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    pass  # the call's shape changed; metrics needing the count go absent
            return result

        return traced

    def run_spans(self, run_id):
        return [s for s in self.spans if s["run"] == run_id]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, available, pipeline_s):
    """Per-layer metrics of one traced pipeline run, keyed by metric name."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    note_sums = defaultdict(float)
    note_seen = set()
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        d = s["end"] - s["start"]
        keys = [s["name"]]
        if s["name"] == "hybrid.train" and "alpha" in s:
            keys.append(f"hybrid.train@{s['alpha']:g}")
        for key in keys:
            total[key] += d
            own[key] += d - covered[s["id"]]
            calls[key] += 1
            for note, value in s.items():
                if note not in ("id", "name", "run", "parent", "start", "end", "alpha"):
                    note_sums[key, note] += value
                    note_seen.add((key, note))

    def note(key, name):
        if calls[key] and (key, name) not in note_seen:
            raise KeyError(name)  # spans exist but the count could not be taken
        return note_sums[key, name]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    table = [
        ("dataset.load_interactions_s", ["dataset.load_interactions"],
         lambda: total["dataset.load_interactions"]),
        ("dataset.rows_per_s", ["dataset.load_interactions"],
         lambda: rate(note("dataset.load_interactions", "rows"), total["dataset.load_interactions"])),
        ("dataset.build_dataset_s", ["dataset.build_dataset"], lambda: total["dataset.build_dataset"]),
        ("dataset.load_item_text_s", ["dataset.load_item_text"], lambda: total["dataset.load_item_text"]),
        ("dataset.ingests", ["dataset.load_interactions"], lambda: calls["dataset.load_interactions"]),
        ("semantic.embed_corpus_s", ["semantic.embed_corpus"], lambda: total["semantic.embed_corpus"]),
        ("semantic.items_embedded", ["semantic.embed_corpus"], lambda: note("semantic.embed_corpus", "items")),
        ("mf.train_s", ["mf.train"], lambda: total["mf.train"]),
        ("mf.sgd_self_s", ["mf.train", "mf.loss"], lambda: own["mf.train"]),
        ("mf.interactions_per_s", ["mf.train", "mf.loss"],
         lambda: rate(note("mf.train", "interactions"), own["mf.train"])),
        ("mf.loss_s", ["mf.loss"], lambda: total["mf.loss"]),
        ("mf.loss_calls", ["mf.loss"], lambda: calls["mf.loss"]),
        ("hybrid.train_s.a0", ["hybrid.train"], lambda: total["hybrid.train@0"]),
        ("hybrid.train_s.a05", ["hybrid.train"], lambda: total["hybrid.train@0.5"]),
        ("hybrid.interactions_per_s.a0", ["hybrid.train", "hybrid.loss"],
         lambda: rate(note("hybrid.train@0", "interactions"), own["hybrid.train@0"])),
        ("hybrid.interactions_per_s.a05", ["hybrid.train", "hybrid.loss"],
         lambda: rate(note("hybrid.train@0.5", "interactions"), own["hybrid.train@0.5"])),
        ("hybrid.loss_s", ["hybrid.loss"], lambda: total["hybrid.loss"]),
        ("evaluate.evaluate_model_s", ["evaluate.evaluate_model"], lambda: total["evaluate.evaluate_model"]),
        ("evaluate.topk_calls", ["evaluate.topk"], lambda: calls["evaluate.topk"]),
        ("evaluate.topk_self_s", ["evaluate.topk"], lambda: own["evaluate.topk"]),
        ("evaluate.items_scored", ["evaluate.topk"], lambda: note("evaluate.topk", "items_scored")),
        ("evaluate.kept_ratio", ["evaluate.topk"],
         lambda: rate(note("evaluate.topk", "kept"), note("evaluate.topk", "items_scored"))),
        ("evaluate.rmse_s", ["evaluate.rmse"], lambda: total["evaluate.rmse"]),
        ("evaluate.recommend_s", ["evaluate.recommend"], lambda: total["evaluate.recommend"]),
        ("persist.save_s", ["persist.save"], lambda: total["persist.save"]),
        ("persist.load_s", ["persist.load"], lambda: total["persist.load"]),
        ("persist.model_bytes", ["persist.save", "persist.load"],
         lambda: max([s["bytes"] for s in spans if "bytes" in s], default=0)),
    ]
    out = {}
    for key, needs, value in table:
        if all(n in available for n in needs):
            try:
                out[key] = float(value())
            except KeyError:
                pass
    for layer in LAYERS:
        names = [n for n in available if n.split(".")[0] == layer]
        if names:
            out[f"{layer}.self_s"] = sum(own[n] for n in names)
    out["trace.accounted_ratio"] = rate(sum(own[n] for n in available), pipeline_s)
    return out
