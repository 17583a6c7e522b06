"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import json
import os
import time

import numpy as np
import pytest

from rexfuse.cli import main as cli_main
from rexfuse.dataset import Interaction, ItemTextCorpus, RatingTriples, build_dataset
from rexfuse.evaluate import EvalConfig, evaluate_model, precision_recall, rmse, sweep_alpha, topk
from rexfuse.hybrid import predict_hybrid, train_hybrid
from rexfuse.mf import FactorModel, TrainConfig, loss_gradients, loss_regularized, predict_mf, train_mf
from rexfuse.persist import load_bundle, save_bundle, ModelBundle

from conftest import dense_dataset, random_interactions
from oracles import (
    central_differences,
    coverage_bruteforce,
    precision_recall_bruteforce,
    rmse_naive,
    topk_bruteforce,
)
from synth import (
    make_cold_start_fixture,
    make_fusion_rows,
    write_csv,
    write_item_text_jsonl,
    write_ml100k_like,
)


class Budget:
    """Wall-clock guard for a criterion."""

    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeded budget {self.limit}s"
        return elapsed


def report(criterion, detail, budget):
    elapsed = budget.check()
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


def fusion_dataset(popularity):
    rows, texts = make_fusion_rows(seed=7, popularity=popularity)
    interactions = [Interaction(u, i, r) for u, i, r in rows]
    dataset = build_dataset(interactions, split_seed=1)
    corpus = ItemTextCorpus(
        texts={dataset.items.index(k): v for k, v in texts.items() if k in dataset.items}
    )
    return dataset, corpus


def test_c1_gradient_correctness():
    """Analytic gradients of the regularized objective match finite differences."""
    budget = Budget(1.0)
    rng = np.random.default_rng(2024)
    model = FactorModel(
        rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(-0.5, 0.5, (5, 3))
    )
    projection = rng.uniform(-0.5, 0.5, (3, 5))
    embeddings = rng.normal(size=(5, 5))
    data = RatingTriples.from_rows(
        [(int(rng.integers(4)), int(rng.integers(5)), float(rng.normal(3.0, 1.0)))
         for _ in range(15)]
    )
    reg, alpha = 0.03, 0.7

    kwargs = dict(projection=projection, embeddings=embeddings, alpha=alpha)
    grad_P, grad_Q, grad_W = loss_gradients(model, data, reg, **kwargs)
    loss = lambda: loss_regularized(model, data, reg, **kwargs)

    worst = 0.0
    for analytic, array in ((grad_P, model.user_factors),
                            (grad_Q, model.item_factors),
                            (grad_W, projection)):
        fd = central_differences(loss, array, h=1e-5)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4
    report("C1 gradient-correctness", f"max rel err {worst:.2e} over P,Q,W", budget)


def test_c2_alpha_zero_reduction():
    """Hybrid training at alpha=0 is bitwise identical to plain factor training."""
    budget = Budget(10.0)
    rng = np.random.default_rng(12)
    interactions = random_interactions(rng, 1000, n_users=50, n_items=80)
    dataset = build_dataset(interactions, split_seed=6)
    table_corpus = ItemTextCorpus(
        texts={i: f"item number {i} text" for i in range(dataset.n_items)}
    )
    config = TrainConfig(n_factors=16, epochs=10, seed=31)

    mf_model, _ = train_mf(dataset, config)
    hy_model, _ = train_hybrid(dataset, table_corpus, config, alpha=0.0, embed_dim=16)

    assert np.array_equal(mf_model.user_factors, hy_model.factors.user_factors)
    assert np.array_equal(mf_model.item_factors, hy_model.factors.item_factors)

    users = np.repeat(np.arange(dataset.n_users), dataset.n_items)
    items = np.tile(np.arange(dataset.n_items), dataset.n_users)
    assert np.array_equal(
        mf_model.predict_pairs(users, items), hy_model.predict_pairs(users, items)
    )
    for u, i in ((0, 0), (7, 33), (49, 79)):
        assert predict_hybrid(hy_model, u, i) == predict_mf(mf_model, u, i)
    report("C2 alpha-zero-reduction", "P,Q bitwise equal; all 4000 pair predictions equal", budget)


def test_c3_metric_oracles():
    """Ranking metrics agree with brute-force oracles on 100 random instances."""
    budget = Budget(5.0)
    rng = np.random.default_rng(33)
    for trial in range(100):
        n_users = int(rng.integers(1, 7))
        n_items = int(rng.integers(2, 11))
        k = int(rng.integers(1, 5))
        model = FactorModel(
            rng.normal(size=(n_users, 2)), rng.normal(size=(n_items, 2))
        )
        exclude = set(
            rng.choice(n_items, size=int(rng.integers(0, n_items // 2 + 1)), replace=False).tolist()
        )

        recommendations = {}
        for u in range(n_users):
            scores = model.score_items(u, np.arange(n_items))
            expected = topk_bruteforce(lambda i: scores[i], n_items, k, exclude)
            got = topk(model, u, k, exclude=exclude)
            assert got == expected, f"trial {trial} user {u}"
            recommendations[u] = got

        test_rows = [
            (u, int(rng.integers(n_items)), float(rng.integers(1, 6)))
            for u in range(n_users)
            for _ in range(int(rng.integers(1, 5)))
        ]
        test = RatingTriples.from_rows(test_rows)
        relevant = {}
        for u, i, r in test_rows:
            if r >= 4.0:
                relevant.setdefault(u, set()).add(i)
        if relevant:
            assert precision_recall(recommendations, test, 4.0) == (
                precision_recall_bruteforce(recommendations, relevant)
            )
        got_cov = len({i for rec in recommendations.values() for i in rec}) / n_items
        assert coverage_bruteforce(recommendations, n_items) == got_cov

        got_rmse = rmse(model, test)
        expected_rmse = rmse_naive(
            [float(model.user_factors[u] @ model.item_factors[i]) for u, i, _ in test_rows],
            [r for _, _, r in test_rows],
        )
        assert abs(got_rmse - expected_rmse) <= 1e-12 * max(1.0, expected_rmse)
    report("C3 metric-oracles", "100 instances, exact agreement", budget)


def test_c4_rank1_recovery():
    """k=1 training recovers a rank-1 rating matrix and matches a full-batch oracle."""
    budget = Budget(5.0)
    a = np.linspace(1.0, 2.0, 20)
    b = np.linspace(1.0, 2.0, 20)
    rows = [(u, i, float(a[u] * b[i])) for u in range(20) for i in range(20)]
    dataset = dense_dataset(rows, 20, 20)
    lam = 0.001
    config = TrainConfig(n_factors=1, learning_rate=0.05, reg=lam, epochs=500, seed=5)
    model, losses = train_mf(dataset, config)

    pred = model.predict_pairs(dataset.train.users, dataset.train.items)
    mse = float(np.mean((pred - dataset.train.ratings) ** 2))
    assert mse < 1e-3

    # full-batch reference in dense-matrix form (all 400 cells observed)
    rng = np.random.default_rng(9)
    P = rng.uniform(-0.1, 0.1, (20, 1))
    Q = rng.uniform(-0.1, 0.1, (20, 1))
    R = np.outer(a, b)
    n = R.size
    for _ in range(3000):
        err = P @ Q.T - R
        P_new = P - 0.2 * ((2.0 / n) * err @ Q + (2.0 * lam / 20) * P)
        Q_new = Q - 0.2 * ((2.0 / n) * err.T @ P + (2.0 * lam / 20) * Q)
        P, Q = P_new, Q_new
    err = P @ Q.T - R
    oracle_loss = float(np.mean(err * err)) + lam * (
        float(np.mean(np.sum(P**2, axis=1))) + float(np.mean(np.sum(Q**2, axis=1)))
    )
    assert losses[-1] == pytest.approx(oracle_loss, rel=0.10)
    report(
        "C4 rank1-recovery",
        f"train MSE {mse:.1e}; loss {losses[-1]:.4e} vs oracle {oracle_loss:.4e}",
        budget,
    )


def test_c5_cold_start():
    """Content scoring ranks held-out items well; factor scoring cannot."""
    budget = Budget(30.0)
    dataset, corpus, cold = make_cold_start_fixture()
    assert not np.any(np.isin(dataset.train.items, cold))

    config = TrainConfig(n_factors=8, learning_rate=0.05, reg=0.01, epochs=30, seed=7)
    hybrid, _ = train_hybrid(dataset, corpus, config, alpha=0.5)

    warm = sorted(set(range(dataset.n_items)) - set(cold.tolist()))
    recommendations = {
        u: topk(hybrid.semantic, u, 10, exclude=warm) for u in range(dataset.n_users)
    }
    _, hybrid_recall = precision_recall(recommendations, dataset.test, 4.0)
    assert hybrid_recall >= 0.5

    mf_model, _ = train_mf(dataset, config)
    mf_report = evaluate_model(mf_model, dataset, EvalConfig(top_k=10))
    assert mf_report.recall < 0.15
    report(
        "C5 cold-start",
        f"hybrid cold recall@10 {hybrid_recall:.3f} >= 0.5; factor-only recall {mf_report.recall:.3f} < 0.15",
        budget,
    )


def test_c6_fusion_benefit():
    """Some interior fusion weight beats the factor-only baseline on precision."""
    budget = Budget(60.0)
    dataset, corpus = fusion_dataset("uniform")
    config = TrainConfig(n_factors=8, learning_rate=0.03, reg=0.02, epochs=20, seed=11)
    reports = sweep_alpha(dataset, corpus, config, [0.0, 0.3, 0.5, 0.7], EvalConfig(top_k=10))

    baseline = reports[0]
    best = max(reports[1:], key=lambda r: r.precision)
    assert best.precision >= 1.05 * baseline.precision
    report(
        "C6 fusion-benefit",
        f"precision@10 {baseline.precision:.4f} -> {best.precision:.4f} at alpha={best.alpha}",
        budget,
    )


def test_c7_coverage_longtail():
    """On skewed data the best fused model covers at least as much catalog."""
    budget = Budget(60.0)
    dataset, corpus = fusion_dataset("longtail")
    config = TrainConfig(n_factors=8, learning_rate=0.05, reg=0.02, epochs=25, seed=11)
    reports = sweep_alpha(dataset, corpus, config, [0.0, 0.3, 0.5, 0.7], EvalConfig(top_k=10))

    baseline = reports[0]
    best = max(reports[1:], key=lambda r: r.precision)
    assert best.coverage >= baseline.coverage
    report(
        "C7 coverage-longtail",
        f"coverage@10 {baseline.coverage:.4f} -> {best.coverage:.4f} at alpha={best.alpha}",
        budget,
    )


def resolve_ml100k(tmp_path):
    env = os.environ.get("REXFUSE_ML100K")
    if env and os.path.exists(env):
        return env, "real ml-100k"
    default = os.path.join("data", "ml-100k", "u.data")
    if os.path.exists(default):
        return default, "real ml-100k"
    path = str(tmp_path / "u.data")
    write_ml100k_like(path)
    return path, "synthetic ml-100k-scale stand-in"


def test_c8_desk_scale_run(tmp_path):
    """Default-config training at 100k-interaction scale: fast, learning, useful."""
    budget = Budget(120.0)
    path, source = resolve_ml100k(tmp_path)
    from rexfuse.dataset import load_interactions

    interactions = load_interactions(path, "movielens100k")
    assert len(interactions) == 100_000
    dataset = build_dataset(interactions, split_seed=42)

    config = TrainConfig()  # the documented defaults: k=32, lr 0.005, reg 0.02, 30 epochs
    train_start = time.perf_counter()
    model, losses = train_mf(dataset, config)
    train_time = time.perf_counter() - train_start
    assert train_time < 120.0

    model_rmse = rmse(model, dataset.test)
    global_mean = float(np.mean(dataset.train.ratings))
    baseline_rmse = float(np.sqrt(np.mean((global_mean - dataset.test.ratings) ** 2)))
    assert model_rmse <= 0.9 * baseline_rmse

    assert losses[29] < losses[0]
    assert losses[4] < losses[0]
    report(
        "C8 desk-scale-run",
        f"{source}: train {train_time:.0f}s, rmse {model_rmse:.4f} vs mean-baseline "
        f"{baseline_rmse:.4f}, loss {losses[0]:.3f}->{losses[29]:.3f}",
        budget,
    )


def test_c9_determinism_and_persistence(tmp_path, capsys):
    """Two identical CLI runs byte-match; saved models predict bitwise-identically."""
    budget = Budget(60.0)
    rows, texts = make_fusion_rows(seed=5, n_users=30, n_items=50, rated_per_user=20)
    data = str(tmp_path / "ratings.csv")
    text = str(tmp_path / "texts.jsonl")
    write_csv(data, rows)
    write_item_text_jsonl(text, texts)

    def one_run(tag):
        model_path = str(tmp_path / f"model_{tag}.json")
        json_path = str(tmp_path / f"report_{tag}.json")
        assert cli_main([
            "train", "--data", data, "--format", "csv", "--mode", "hybrid",
            "--item-text", text, "--alpha", "0.5", "--k", "8", "--epochs", "8",
            "--seed", "17", "--out", model_path,
        ]) == 0
        assert cli_main([
            "evaluate", "--model", model_path, "--data", data, "--format", "csv",
            "--json", json_path,
        ]) == 0
        with open(json_path, "rb") as fh:
            return model_path, fh.read()

    model_a, report_a = one_run("a")
    model_b, report_b = one_run("b")
    capsys.readouterr()
    assert report_a == report_b

    bundle = load_bundle(model_a)
    rng = np.random.default_rng(99)
    users = rng.integers(0, len(bundle.users), 1000)
    items = rng.integers(0, len(bundle.items), 1000)
    reloaded = load_bundle(model_a)
    assert np.array_equal(
        bundle.model.predict_pairs(users, items), reloaded.model.predict_pairs(users, items)
    )

    # round trip from a freshly trained in-memory model
    interactions = [Interaction(u, i, r) for u, i, r in rows]
    dataset = build_dataset(interactions, split_seed=17)
    config = TrainConfig(n_factors=8, epochs=8, seed=17)
    corpus = ItemTextCorpus(
        texts={dataset.items.index(k): v for k, v in texts.items() if k in dataset.items}
    )
    in_memory, _ = train_hybrid(dataset, corpus, config, alpha=0.5)
    path = str(tmp_path / "roundtrip.json")
    save_bundle(
        ModelBundle(
            mode="hybrid",
            model=in_memory,
            users=dataset.users,
            items=dataset.items,
            config=config,
            split_seed=17,
            item_train_counts=dataset.item_train_counts(),
        ),
        path,
    )
    loaded = load_bundle(path)
    users = rng.integers(0, dataset.n_users, 1000)
    items = rng.integers(0, dataset.n_items, 1000)
    assert np.array_equal(
        in_memory.predict_pairs(users, items), loaded.model.predict_pairs(users, items)
    )
    report("C9 determinism-persistence", "byte-identical reports; bitwise round trips", budget)
