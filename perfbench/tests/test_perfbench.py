"""Checks of the benchmark's own generators, oracles and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

run.import_package()

import gen  # noqa: E402
import oracle  # noqa: E402
import rexfuse  # noqa: E402
import rexfuse.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_uniform_generator_matches_acceptance_standin(tmp_path):
    sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        import synth
    finally:
        sys.path.pop(0)
    ours, theirs = tmp_path / "ours.data", tmp_path / "theirs.data"
    gen.write_uniform_ratings(ours, 1337)
    synth.write_ml100k_like(theirs, seed=1337)
    assert ours.read_bytes() == theirs.read_bytes()


def test_longtail_generator_is_seeded(tmp_path):
    shape = dict(n_users=50, n_items=90, n_ratings=1200, **workloads.TAIL)
    a = [tmp_path / "a.data", tmp_path / "a.jsonl"]
    b = [tmp_path / "b.data", tmp_path / "b.jsonl"]
    gen.write_longtail(*a, 3, **shape)
    gen.write_longtail(*b, 3, **shape)
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    rows = a[0].read_text().splitlines()
    assert len(rows) == 1200
    assert len({r.split("\t")[1] for r in rows}) == 90
    for line in a[1].read_text().splitlines():
        assert 40 <= len(json.loads(line)["text"].split()) <= 80


@pytest.fixture
def small_model(tmp_path):
    """A small hybrid model trained through the CLI, plus its split."""
    ratings, texts, model = tmp_path / "r.data", tmp_path / "t.jsonl", tmp_path / "m.json"
    gen.write_longtail(ratings, texts, 5, n_users=60, n_items=120, n_ratings=2000, **workloads.TAIL)
    tally = workloads.Tally()
    assert tally.cli(["train", "--data", str(ratings), *workloads.ML, "--item-text", str(texts),
                      "--mode", "hybrid", "--alpha", "0.5", *workloads.HYBRID_FLAGS,
                      "--seed", "5", "--out", str(model)])
    dataset = workloads.load_split(tally, str(ratings), 5)
    return str(model), dataset


def test_oracle_catches_one_corrupted_list(small_model):
    model_path, dataset = small_model
    tally = workloads.Tally()
    requests = workloads.make_requests(dataset, 5, 40)
    result = workloads.serve(tally, model_path, dataset, requests)
    assert tally.failed == 0
    model = oracle.ModelFile(model_path)
    answers = result["answers"]
    assert oracle.check_recommendations(model, answers) == []
    uid, cold, rows = answers[7]
    corrupted = list(answers)
    corrupted[7] = (uid, cold, [rows[1], rows[0]] + rows[2:])
    assert len(oracle.check_recommendations(model, corrupted)) == 1

    train, test = workloads.split_arrays(dataset)
    report = result["report"]
    assert oracle.check_report(report, model, train, test, dataset.items.ids) == []
    wrong = dict(report, precision=report["precision"] + 1e-3)
    assert len(oracle.check_report(wrong, model, train, test, dataset.items.ids)) == 1


def _traced_mf_run(tmp_path):
    ratings = tmp_path / "u.data"
    gen.write_uniform_ratings(ratings, 2, n_users=40, n_items=60, n_ratings=900)
    tracer = spans.Tracer()
    tracer.install("t")
    try:
        code = rexfuse.cli.main(["train", "--data", str(ratings), *workloads.ML, "--mode", "mf",
                                 "--epochs", "2", "--out", str(tmp_path / "m.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    wall = max(s["end"] for s in tracer.spans) - min(s["start"] for s in tracer.spans)
    return spans.layer_metrics(tracer.run_spans("t"), tracer.available, wall)


def test_traced_run_reports_layers_and_restores_package(tmp_path, capsys):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.PATCH_POINTS}
    metrics = _traced_mf_run(tmp_path)
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.PATCH_POINTS} == originals
    assert metrics["mf.loss_calls"] == 2
    assert metrics["dataset.ingests"] == 1
    assert metrics["mf.sgd_self_s"] + metrics["mf.loss_s"] == pytest.approx(metrics["mf.train_s"])
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0)


def test_missing_patch_point_makes_its_metrics_absent(tmp_path, monkeypatch, capsys):
    renamed = [(m, "renamed_away" if n == "mf.loss" else a, n) for m, a, n in spans.PATCH_POINTS]
    monkeypatch.setattr(spans, "PATCH_POINTS", renamed)
    metrics = _traced_mf_run(tmp_path)
    assert "mf.train_s" in metrics
    for absent in ("mf.loss_s", "mf.loss_calls", "mf.sgd_self_s", "mf.interactions_per_s"):
        assert absent not in metrics


def test_every_metric_is_declared():
    spec = run.spec()
    every_span = {name for _, _, name in spans.PATCH_POINTS}
    computed = set(spans.layer_metrics([], every_span, 1.0)) | {"trace.overhead_ratio"}
    assert computed == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pipeline_s", "peak_rss_mb", *workloads.QUALITY}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_failed_setup_is_counted_not_raised(tmp_path):
    result, info, _ = workloads.run("mf_train", tmp_path / "missing", 1, 0.0, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "FileNotFoundError" in info["notes"][0]
