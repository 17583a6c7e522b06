import re

import numpy as np
import pytest

from rexfuse import evaluate
from rexfuse.dataset import (
    IdIndex,
    InteractionDataset,
    ItemTextCorpus,
    RatingTriples,
    build_dataset,
)
from rexfuse.evaluate import (
    EvalConfig,
    EvalReport,
    coverage,
    evaluate_model,
    precision_recall,
    recommend_for_user,
    render_table,
    rmse,
    sweep_alpha,
    topk,
)
from rexfuse.hybrid import (
    DEFAULT_EMBED_DIM,
    HybridModel,
    predict_cold_start,
    predict_hybrid,
    semantic_score,
    train_hybrid,
)
from rexfuse.mf import FactorModel, TrainConfig, loss_mse, predict_mf, score_pairs, train_mf
from rexfuse.semantic import embed_corpus

from conftest import embedding_table, random_interactions
from oracles import (
    coverage_bruteforce,
    precision_recall_bruteforce,
    recommend_bruteforce,
    rmse_naive,
    topk_bruteforce,
    topk_stable_sort,
)


def single_user_model(item_scores):
    """k=1 model whose scores for user 0 are exactly item_scores."""
    return FactorModel(
        np.array([[1.0]]), np.array([[s] for s in item_scores], dtype=float)
    )


# ---------------------------------------------------------------- topk

def test_topk_orders_by_score():
    model = single_user_model([0.1, 0.9, 0.5])
    assert topk(model, 0, 2) == [1, 2]


def test_topk_tie_breaks_to_lower_index():
    model = single_user_model([0.7, 0.7, 0.1])
    assert topk(model, 0, 2) == [0, 1]


def test_topk_honors_exclusions_and_short_pools():
    model = single_user_model([0.4, 0.3, 0.2, 0.1])
    assert topk(model, 0, 3, exclude={0, 2}) == [1, 3]
    assert topk(model, 0, 10) == [0, 1, 2, 3]
    assert topk(model, 0, 2, exclude={0, 1, 2, 3}) == []


def test_topk_rejects_bad_k():
    with pytest.raises(ValueError):
        topk(single_user_model([1.0]), 0, 0)


@pytest.mark.parametrize("k", [True, 2.5, np.float64(2.0)])
def test_topk_and_recommend_refuse_a_k_that_is_not_an_integer(k):
    model = single_user_model([3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
        topk(model, 0, k)
    with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
        recommend_for_user(model, 0, k, np.ones(3, dtype=int))


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=50)
    scores[7] = scores[31]  # plant a tie
    rows = [
        scores,
        # signed zeros, infinities and long runs of repeats; NaN is left out
        # because the oracle's sorted() cannot order it
        rng.choice([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, 1.5], size=50),
        np.where(rng.random(50) < 0.5, 0.0, -0.0),
        np.repeat([2.0, -np.inf, 2.0, np.inf, -0.0], 10),
    ]
    for row in rows:
        model = single_user_model(row)
        exclude = np.sort(rng.choice(50, size=8, replace=False))
        for k in (1, 5, 20, 60):
            expected = topk_bruteforce(lambda i: row[i], 50, k, exclude.tolist())
            assert topk(model, 0, k, exclude=exclude) == expected
            assert topk(model, 0, k, exclude=set(exclude.tolist())) == expected


def test_ranked_rows_match_the_oracles_on_adversarial_rows():
    """Ties, signed zeros, infinities, NaN, k past the pool and empty pools, row by row."""
    rng = np.random.default_rng(17)
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 2.0, 2.0])
    for trial in range(400):
        n_rows, n_items = rng.integers(1, 7), rng.integers(1, 14)
        scores = rng.choice(pool, size=(n_rows, n_items))
        if trial % 4 == 0:
            scores[:, rng.integers(n_items)] = np.nan
        candidates = rng.random((n_rows, n_items)) < rng.choice([0.3, 0.8, 1.0])
        candidates[0] = candidates[0] & (trial % 5 != 0)  # some pools are empty
        k = int(rng.integers(1, n_items + 4))
        for row, mask in zip(scores, candidates):
            got = evaluate._ranked(row, np.flatnonzero(mask), k)
            expected = topk_stable_sort(row, mask, k)
            assert got.tolist() == expected
            assert len(expected) == min(k, int(mask.sum()))
            if not np.isnan(row).any():
                excluded = np.flatnonzero(~mask).tolist()
                assert expected == topk_bruteforce(lambda i: row[i], n_items, k, excluded)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(top_k=0), "top_k must be a positive integer, got 0"),
        (dict(top_k=2.5), "top_k must be a positive integer, got 2.5"),
        (dict(top_k=True), "top_k must be a positive integer, got True"),
        (dict(relevance_threshold=float("nan")), "relevance_threshold must be a finite number, got nan"),
        (dict(relevance_threshold=float("inf")), "relevance_threshold must be a finite number, got inf"),
        (dict(relevance_threshold="4"), "relevance_threshold must be a finite number, got '4'"),
        (dict(relevance_threshold=True), "relevance_threshold must be a finite number, got True"),
    ],
)
def test_eval_config_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EvalConfig(**fields)


def test_eval_config_accepts_numpy_numbers():
    config = EvalConfig(top_k=np.int64(3), relevance_threshold=np.float64(3.5))
    assert (config.top_k, config.relevance_threshold) == (3, 3.5)


def test_report_json_writes_numpy_numbers_as_the_equal_python_ones():
    metrics = dict(precision=0.25, recall=0.5, coverage=0.125, rmse=1.5)
    numpy_valued = EvalReport(**{name: np.float32(v) for name, v in metrics.items()},
                              n_users_evaluated=np.int64(7), alpha=np.float32(0.5))
    python_valued = EvalReport(**metrics, n_users_evaluated=7, alpha=0.5)
    assert numpy_valued.to_json() == python_valued.to_json()


# ---------------------------------------------------------------- metrics

def triples(rows):
    return RatingTriples.from_rows(rows)


def test_precision_recall_hand_case():
    # relevant = {0, 1}; recommended = [0, 5, 6]
    test = triples([(0, 0, 5.0), (0, 1, 4.0), (0, 2, 1.0)])
    precision, recall = precision_recall({0: [0, 5, 6]}, test, threshold=4.0)
    assert precision == pytest.approx(1 / 3)
    assert recall == pytest.approx(1 / 2)


def test_precision_recall_perfect():
    test = triples([(0, 0, 5.0), (0, 1, 4.5)])
    precision, recall = precision_recall({0: [0, 1]}, test, threshold=4.0)
    assert precision == 1.0 and recall == 1.0


def test_precision_recall_requires_a_relevant_user():
    test = triples([(0, 0, 1.0)])
    with pytest.raises(ValueError, match="no user"):
        precision_recall({0: [0]}, test, threshold=4.0)


def test_metrics_match_bruteforce_battery():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_users = int(rng.integers(1, 7))
        n_items = int(rng.integers(2, 11))
        k = int(rng.integers(1, 5))
        test_rows = [
            (u, int(rng.integers(n_items)), float(rng.integers(1, 6)))
            for u in range(n_users)
            for _ in range(rng.integers(1, 5))
        ]
        test = triples(test_rows)
        recs = {
            u: list(rng.choice(n_items, size=min(k, n_items), replace=False))
            for u in range(n_users)
        }
        relevant = {}
        for u, i, r in test_rows:
            if r >= 4.0:
                relevant.setdefault(u, set()).add(i)
        if not relevant:
            continue
        expected = precision_recall_bruteforce(recs, relevant)
        assert precision_recall(recs, test, 4.0) == expected
        assert coverage(recs, n_items) == coverage_bruteforce(recs, n_items)


def test_coverage_hand_cases():
    recs = {u: list(range(10)) for u in range(5)}
    assert coverage(recs, 100) == 0.10
    assert coverage({0: [0, 1], 1: [2]}, 3) == 1.0
    with pytest.raises(ValueError):
        coverage(recs, 0)


def test_rmse_hand_cases():
    model = single_user_model([2.0])
    assert rmse(model, triples([(0, 0, 2.0)])) == 0.0
    assert rmse(model, triples([(0, 0, 4.0)])) == 2.0
    with pytest.raises(ValueError):
        rmse(model, RatingTriples.empty())


def test_rmse_matches_naive_and_squares_to_mse():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=20)
    model = single_user_model(scores)
    rows = [(0, int(i), float(rng.normal())) for i in rng.integers(0, 20, size=40)]
    test = triples(rows)
    predictions = [float(scores[i]) for _, i, _ in rows]
    actuals = [y for _, _, y in rows]
    got = rmse(model, test)
    expected = rmse_naive(predictions, actuals)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)
    mse = loss_mse(list(zip(predictions, actuals)))
    assert abs(got**2 - mse) <= 1e-12 * max(1.0, mse)


# ---------------------------------------------------------------- pipeline

def trained_small(seed=3):
    rng = np.random.default_rng(seed)
    ds = build_dataset(random_interactions(rng, 300, n_users=20, n_items=25), split_seed=9)
    model, _ = train_mf(ds, TrainConfig(n_factors=4, epochs=5, seed=1))
    return ds, model


def test_evaluate_model_report_is_sane():
    ds, model = trained_small()
    report = evaluate_model(model, ds, EvalConfig(top_k=5))
    for value in (report.precision, report.recall, report.coverage):
        assert 0.0 <= value <= 1.0
    assert np.isfinite(report.rmse)
    assert report.n_users_evaluated >= 1
    assert report.alpha is None


def test_evaluate_model_excludes_train_items():
    ds, model = trained_small()
    config = EvalConfig(top_k=5)
    train_items = {}
    for u, i in zip(ds.train.users.tolist(), ds.train.items.tolist()):
        train_items.setdefault(u, set()).add(i)
    relevant_users = {
        u for u, r in zip(ds.test.users.tolist(), ds.test.ratings.tolist()) if r >= 4.0
    }
    for u in relevant_users:
        rec = topk(model, u, config.top_k, exclude=train_items.get(u, ()))
        assert not (set(rec) & train_items.get(u, set()))


def test_evaluate_model_matches_bruteforce_recount():
    """The report recounted from the oracles, each user's training items excluded."""
    n_users, n_items, k = 6, 9, 4
    rng = np.random.default_rng(21)
    model = FactorModel(rng.normal(size=(n_users, 3)), rng.normal(size=(n_items, 3)))
    train_rows = (
        # user 0 rated 7 of the 9 items, item 2 twice: 2 candidates for a top-4
        [(0, i, 3.0) for i in range(7)] + [(0, 2, 5.0)]
        + [(1, 4, 2.0), (1, 4, 4.0), (2, 0, 1.0), (4, 8, 5.0), (5, 1, 3.0), (5, 7, 4.0)]
    )  # user 3 has no training rows
    test_rows = [
        (0, 8, 5.0), (0, 7, 4.0), (1, 3, 4.5), (1, 5, 2.0), (2, 6, 1.0),
        (3, 1, 5.0), (3, 2, 4.0), (4, 0, 3.9), (5, 3, 4.0), (5, 3, 5.0), (5, 6, 4.5),
    ]
    ds = InteractionDataset(
        IdIndex(str(u) for u in range(n_users)),
        IdIndex(str(i) for i in range(n_items)),
        triples(train_rows),
        RatingTriples.empty(),
        triples(test_rows),
    )
    train_items, relevant = {}, {}
    for u, i, _ in train_rows:
        train_items.setdefault(u, set()).add(i)
    for u, i, r in test_rows:
        if r >= 4.0:
            relevant.setdefault(u, set()).add(i)
    recs = {}
    for u in relevant:
        row = model.score_items(u, slice(None))
        recs[u] = topk_bruteforce(lambda i: row[i], n_items, k, train_items.get(u, ()))
    precision, recall = precision_recall_bruteforce(recs, relevant)
    assert evaluate_model(model, ds, EvalConfig(top_k=k)) == EvalReport(
        precision=precision,
        recall=recall,
        coverage=coverage_bruteforce(recs, n_items),
        rmse=rmse(model, ds.test),
        n_users_evaluated=len(relevant),
    )


def evaluated_lists(monkeypatch, model, ds, config):
    """evaluate_model's top-k lists, as ranked by evaluate._top_lists."""
    lists = {}
    top_lists = evaluate._top_lists

    def recording(factors, users, train_keys, k):
        ranked = top_lists(factors, users, train_keys, k)
        lists.update(zip(users.tolist(), ([i for i in row if i >= 0] for row in ranked.tolist())))
        return ranked

    monkeypatch.setattr(evaluate, "_top_lists", recording)
    evaluate_model(model, ds, config)
    return lists


@pytest.mark.parametrize("kind", ["mf", "additive-0.5", "convex-0.3"])
@pytest.mark.parametrize("n_evaluated", [1, 63, 64, 65, 129])
def test_evaluate_model_lists_equal_per_user_topk(monkeypatch, kind, n_evaluated):
    """Ranking 64 users per pass gives each user the list topk gives it alone, at every block edge."""
    n_users, n_items = 140, 40
    _, models = random_scoring_models(n_users, n_items, 6, 8, seed=n_evaluated)
    model = models[kind]
    rng = np.random.default_rng(n_evaluated)
    evaluated = np.sort(rng.choice(n_users, n_evaluated, replace=False))
    train_rows = [
        (u, int(i), 3.0)
        for u in range(n_users)
        for i in rng.choice(n_items, rng.integers(0, n_items + 1), replace=True)
    ]
    test_rows = [(int(u), int(rng.integers(n_items)), 5.0) for u in evaluated]
    test_rows += [(u, 0, 1.0) for u in range(n_users)]  # rated, never relevant
    ds = InteractionDataset(
        IdIndex(str(u) for u in range(n_users)),
        IdIndex(str(i) for i in range(n_items)),
        triples(train_rows),
        RatingTriples.empty(),
        triples(test_rows),
    )
    train_items = {}
    for u, i, _ in train_rows:
        train_items.setdefault(u, set()).add(i)
    for k in (1, 5, n_items + 3):
        lists = evaluated_lists(monkeypatch, model, ds, EvalConfig(top_k=k))
        assert sorted(lists) == evaluated.tolist()
        for u, got in lists.items():
            assert got == topk(model, u, k, exclude=train_items.get(u, ()))


def test_evaluate_model_requires_relevant_users():
    ds, model = trained_small()
    with pytest.raises(ValueError, match="no user"):
        evaluate_model(model, ds, EvalConfig(relevance_threshold=99.0))


def test_evaluate_model_rejects_a_model_of_another_catalogue():
    """A 12-item model on a 2-item dataset would rank items that do not exist."""
    ds = InteractionDataset(
        IdIndex(["a", "b"]), IdIndex(["x", "y"]), triples([(0, 0, 3.0)]), RatingTriples.empty(),
        triples([(0, 1, 5.0), (1, 0, 5.0)]),
    )
    model = FactorModel(np.ones((2, 3)), np.ones((12, 3)))
    with pytest.raises(ValueError, match=r"^the model scores 12 items but the dataset has 2$"):
        evaluate_model(model, ds)


@pytest.mark.parametrize("bad", [-1, 7])
def test_evaluate_model_refuses_a_training_user_out_of_range(bad):
    """Such a user's training items would mask no one's list, and the report would not say so."""
    ds = InteractionDataset(
        IdIndex(["a", "b"]), IdIndex(["x", "y", "z"]), triples([(0, 0, 3.0), (bad, 1, 4.0)]),
        RatingTriples.empty(), triples([(0, 1, 5.0), (1, 2, 5.0)]),
    )
    model = FactorModel(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(IndexError) as info:
        evaluate_model(model, ds)
    assert str(info.value) == f"user index {bad} out of range [0, 2)"


def adversarial_factors(case, rng, n_users, n_items, k=32):
    """Factors on which the BLAS product and the einsum pair scores disagree or break down."""
    P, Q = rng.normal(size=(n_users, k)), rng.normal(size=(n_items, k))
    if case in ("near-ties", "subnormal"):
        # wide magnitudes and items a few ulps apart: the two summation orders rank them differently
        P *= 10.0 ** rng.integers(-3, 4, size=P.shape)
        base = rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)
        Q = base + 1e-15 * np.abs(base) * rng.normal(size=(n_items, k))
    if case == "ties":
        Q = Q[rng.integers(0, 5, n_items)]  # five distinct rows: every score ties with others
    elif case == "signed-zeros":
        P[::3], P[1::3] = 0.0, -0.0
        Q[::4], Q[1::4] = -0.0, 0.0
    elif case == "infinite-or-nan-user":
        P[3], P[5, 2], P[7, 0] = np.inf, -np.inf, np.nan
    elif case == "infinite-or-nan-item":
        Q[4, 1], Q[9] = np.nan, -np.inf
    elif case == "overflowing-norms":  # ||P_u|| overflows, the scores stay finite
        P[::3] = np.copysign(1.7e308, P[::3])
        Q *= 1e-300
    elif case == "overflowing-bound":  # k max|P_u| max|Q| overflows, the scores stay finite
        P[::3, 0] = np.copysign(1.7e308, P[::3, 0])
        Q[:, 0] *= 1e-300
    elif case == "overflowing-scores":
        P[::3] *= 1e200
        Q[::5] *= 1e200
    elif case == "subnormal":
        P[::4] *= 1e-310  # subnormal factors
        P[1::4] *= 2.0**-560  # the near ties again, with squares that underflow to 0
        Q[::7] *= 1e-150  # products that underflow
    return P, Q


@pytest.mark.parametrize(
    "case",
    ["near-ties", "ties", "signed-zeros", "infinite-or-nan-user", "infinite-or-nan-item",
     "overflowing-norms", "overflowing-bound", "overflowing-scores", "subnormal"],
)
def test_prefiltered_lists_equal_per_user_topk_on_adversarial_factors(monkeypatch, case):
    """The BLAS prefilter keeps every item that can reach the k-th place, whatever the factors.

    User 0 has trained every item (an empty pool) and user 1 all but two (k
    above the pool), so masked items must stay out when every candidate is kept.
    """
    n_users, n_items = 70, 120
    rng = np.random.default_rng(sum(map(ord, case)))
    model = FactorModel(*adversarial_factors(case, rng, n_users, n_items))
    train_items = {0: set(range(n_items)), 1: set(range(2, n_items))}
    for u in range(2, n_users):
        train_items[u] = set(rng.choice(n_items, rng.integers(0, 40), replace=False).tolist())
    ds = InteractionDataset(
        IdIndex(str(u) for u in range(n_users)),
        IdIndex(str(i) for i in range(n_items)),
        triples([(u, i, 3.0) for u, items in train_items.items() for i in sorted(items)]),
        RatingTriples.empty(),
        triples([(u, int(rng.integers(n_items)), 5.0) for u in range(n_users)]),
    )
    for k in (1, 4, 10, n_items + 3):
        with np.errstate(over="ignore", invalid="ignore"):  # the RMSE of overflowing scores
            lists = evaluated_lists(monkeypatch, model, ds, EvalConfig(top_k=k))
        assert sorted(lists) == list(range(n_users))
        assert lists[0] == []
        for u, got in lists.items():
            assert got == topk(model, u, k, exclude=train_items[u])


@pytest.mark.parametrize("case", ["well-scaled", "overflowing-bound"])
def test_prefilter_rescores_k_pairs_per_user_unless_its_bound_overflows(monkeypatch, case):
    """Without ties, only each user's k best reach ``score_pairs``; a user whose bound
    overflows keeps every candidate.  A bound too loose to prune passes every exactness
    test and only slows evaluate down, so this counts the re-scored pairs."""
    n_users, n_items, n_factors, k = 150, 300, 16, 10
    rng = np.random.default_rng(29)
    model = FactorModel(*adversarial_factors(case, rng, n_users, n_items, n_factors))
    overflowing = (np.arange(n_users) % 3 == 0) & (case == "overflowing-bound")
    trained = rng.random((n_users, n_items)) < 0.2
    scored = []

    def counting(factors, users, items):
        scored.append(len(items))
        return score_pairs(factors, users, items)

    monkeypatch.setattr(evaluate, "score_pairs", counting)
    lists = evaluate._top_lists(model, np.arange(n_users), np.flatnonzero(trained), k)
    assert sum(scored) == np.where(overflowing, np.count_nonzero(~trained, axis=1), k).sum()
    assert lists.tolist() == [topk(model, u, k, exclude=np.flatnonzero(trained[u]))
                              for u in range(n_users)]


@pytest.mark.parametrize(
    "counts",
    [
        [1, 0],  # too short: numpy would raise an IndexError about a boolean index
        np.ones((40, 1)),
        [1] * 39 + [-2],  # a negative count would read as cold
    ],
)
def test_recommend_rejects_bad_item_train_counts(counts):
    _, models = random_scoring_models(3, 40, 4, 5, seed=2)
    for model in (models["mf"], models["additive-0.5"]):
        with pytest.raises(ValueError, match=r"^item_train_counts must hold 40 non-negative counts$"):
            recommend_for_user(model, 0, 5, counts)


# ---------------------------------------------------------------- sweep

def sweep_fixture():
    rng = np.random.default_rng(15)
    ds = build_dataset(random_interactions(rng, 300, n_users=20, n_items=25), split_seed=4)
    table = embedding_table(
        6,
        {i: np.random.default_rng(60 + i).normal(size=6) for i in range(ds.n_items)},
    )
    return ds, table


def test_sweep_alpha_orders_reports_by_grid():
    ds, table = sweep_fixture()
    cfg = TrainConfig(n_factors=3, epochs=3, seed=5)
    reports = sweep_alpha(ds, table, cfg, [0.3, 0.5, 0.7], EvalConfig(top_k=5))
    assert [r.alpha for r in reports] == [0.3, 0.5, 0.7]


def test_sweep_alpha_zero_equals_pure_mf_evaluation():
    ds, table = sweep_fixture()
    cfg = TrainConfig(n_factors=3, epochs=3, seed=5)
    (report,) = sweep_alpha(ds, table, cfg, [0.0], EvalConfig(top_k=5))
    mf_model, _ = train_mf(ds, cfg)
    mf_report = evaluate_model(mf_model, ds, EvalConfig(top_k=5))
    assert report.precision == mf_report.precision
    assert report.recall == mf_report.recall
    assert report.coverage == mf_report.coverage
    assert report.rmse == mf_report.rmse


def test_sweep_alpha_repeated_value_is_deterministic():
    ds, table = sweep_fixture()
    cfg = TrainConfig(n_factors=3, epochs=3, seed=5)
    first, second = sweep_alpha(ds, table, cfg, [0.5, 0.5], EvalConfig(top_k=5))
    assert first == second


def test_sweep_alpha_embeds_a_text_corpus_once(monkeypatch):
    ds, _ = sweep_fixture()
    corpus = ItemTextCorpus(texts={i: f"genre{i % 4} tag{i % 7}" for i in range(0, ds.n_items, 2)})
    cfg = TrainConfig(n_factors=3, epochs=2, seed=5)
    alphas = [0.0, 0.3, 0.5, 0.7]
    table = embed_corpus(corpus, DEFAULT_EMBED_DIM)
    expected = [
        evaluate_model(train_hybrid(ds, table, cfg, a)[0], ds, EvalConfig(top_k=5), alpha=a)
        for a in alphas
    ]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return embed_corpus(*args, **kwargs)

    monkeypatch.setattr("rexfuse.hybrid.embed_corpus", counting)
    reports = sweep_alpha(ds, corpus, cfg, alphas, EvalConfig(top_k=5))
    assert len(calls) == 1
    assert reports == expected


def test_sweep_alpha_empty_grid_rejected():
    ds, table = sweep_fixture()
    with pytest.raises(ValueError):
        sweep_alpha(ds, table, TrainConfig(epochs=1), [])


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
def test_sweep_alpha_refuses_a_bad_alpha_before_embedding_or_training(monkeypatch, bad):
    ds, _ = sweep_fixture()
    corpus = ItemTextCorpus(texts={0: "some text"})

    def never(*args, **kwargs):
        raise AssertionError("called before every alpha was checked")

    monkeypatch.setattr("rexfuse.hybrid.embed_corpus", never)
    monkeypatch.setattr(evaluate, "train_hybrid", never)
    with pytest.raises(ValueError, match=rf"^alpha must be finite and >= 0, got {bad}$"):
        sweep_alpha(ds, corpus, TrainConfig(epochs=1), [0.0, 0.5, bad])


# ---------------------------------------------------------------- recommend

def test_recommend_hides_cold_items_by_default():
    ds, table = sweep_fixture()
    model, _ = train_hybrid(ds, table, TrainConfig(n_factors=3, epochs=3, seed=5), alpha=0.5)
    counts = ds.item_train_counts()
    rows = recommend_for_user(model, 0, ds.n_items, counts, include_cold=False)
    recommended = {item for item, _, _ in rows}
    cold = set(np.flatnonzero(counts == 0).tolist())
    assert not (recommended & cold)
    scores = [score for _, score, _ in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(path == "cf+semantic" for _, _, path in rows)


def test_recommend_include_cold_uses_content_path():
    ds, table = sweep_fixture()
    model, _ = train_hybrid(ds, table, TrainConfig(n_factors=3, epochs=3, seed=5), alpha=0.5)
    counts = ds.item_train_counts()
    if not (counts == 0).any():
        counts = counts.copy()
        counts[3] = 0  # force one cold item
    rows = recommend_for_user(model, 0, ds.n_items, counts, include_cold=True)
    paths = {item: path for item, _, path in rows}
    for item in np.flatnonzero(counts == 0).tolist():
        assert paths[item] == "cold-start"


@pytest.mark.parametrize("k", [0, -3])
def test_recommend_rejects_k_below_one(k):
    ds, table = sweep_fixture()
    model, _ = train_hybrid(ds, table, TrainConfig(n_factors=3, epochs=1, seed=5), alpha=0.5)
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
        recommend_for_user(model, 0, k, ds.item_train_counts(), include_cold=True)


def test_recommend_mf_model_labels_cf():
    ds, _ = sweep_fixture()
    model, _ = train_mf(ds, TrainConfig(n_factors=3, epochs=3, seed=5))
    rows = recommend_for_user(model, 0, 5, ds.item_train_counts())
    assert rows and all(path == "cf" for _, _, path in rows)


def random_scoring_models(n_users, n_items, k, dim, seed):
    """(P, Q, W, table, counts) drawn at random, plus the MF and hybrid models over them.

    Every fifth item has no embedding; items 1 and 2 are identical and warm,
    so they tie exactly under every model.
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1, 1, (n_users, k))
    Q = rng.uniform(-1, 1, (n_items, k))
    W = rng.uniform(-1, 1, (k, dim))
    vectors = {i: rng.normal(size=dim) for i in range(n_items) if i % 5}
    Q[2], vectors[2] = Q[1], vectors[1].copy()
    counts = rng.integers(0, 3, n_items)
    counts[1] = counts[2] = 1
    table = embedding_table(dim, vectors)
    models = {"mf": FactorModel(P, Q)}
    for fusion, alpha in [("additive", 0.5), ("convex", 0.3), ("additive", 0.0)]:
        models[f"{fusion}-{alpha}"] = HybridModel(FactorModel(P, Q), W, table, alpha, fusion)
    return (P, Q, W, table, counts), models


@pytest.mark.parametrize("kind", ["mf", "additive-0.5", "convex-0.3"])
@pytest.mark.parametrize("include_cold", [False, True])
@pytest.mark.parametrize("k", [5, 100])
def test_recommend_matches_bruteforce_oracle(kind, include_cold, k):
    (P, Q, W, table, counts), models = random_scoring_models(6, 40, 6, 8, seed=21)
    model = models[kind]
    head = None if kind == "mf" else (W, table.dense(len(Q)), model.alpha, model.fusion)
    pool = int(np.sum(counts > 0)) if not include_cold else len(Q)
    for u in range(len(P)):
        got = recommend_for_user(model, u, k, counts, include_cold=include_cold)
        expected = recommend_bruteforce(P, Q, u, k, counts, include_cold, head)
        assert len(got) == min(k, pool)
        assert [(i, label) for i, _, label in got] == [(i, label) for i, _, label in expected]
        assert [s for _, s, _ in got] == pytest.approx(
            [s for _, s, _ in expected], rel=1e-12, abs=1e-15
        )
        if k > pool:  # the whole pool is listed: the forced tie breaks to the lower index
            ranked = [i for i, _, _ in got]
            assert ranked.index(2) == ranked.index(1) + 1


class RecordingScorer:
    """Passes ``score_items`` through to a model and keeps what it returned."""

    def __init__(self, model):
        self.model, self.n_items, self.seen = model, model.n_items, []

    def score_items(self, u, items):
        scores = self.model.score_items(u, items)
        self.seen.append((np.arange(self.n_items)[items], scores))
        return scores


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("kind", ["mf", "additive-0.5", "convex-0.3", "additive-0.0"])
def test_every_score_is_its_pair_score_bitwise(kind):
    """Rankings, recommend rows and scalar predictions reuse ``predict_pairs``' bits."""
    (P, Q, W, table, counts), models = random_scoring_models(7, 240, 32, 16, seed=5)
    model = models[kind]
    n = len(Q)
    every = np.arange(n)
    rng = np.random.default_rng(8)
    probe = rng.choice(n, 25, replace=False).tolist()
    # the semantic term P_u.V_i, scored the way score_pairs scores P_u.Q_i
    semantic_model = None if kind == "mf" else model.semantic
    semantic = None
    for u in range(len(P)):
        pairs = model.predict_pairs(np.full(n, u), every)
        if semantic_model is not None:
            semantic = score_pairs(semantic_model, np.full(n, u), every)
        for exclude in [(), rng.choice(n, n // 3, replace=False).tolist(), range(3, n)]:
            scorer = RecordingScorer(model)
            got = topk(scorer, u, 10, exclude=exclude)
            assert got == topk_bruteforce(lambda i: pairs[i], n, 10, exclude)
            for items, scores in scorer.seen:
                assert np.array_equal(bits(scores), bits(pairs[items]))
        for include_cold in (False, True):
            rows = recommend_for_user(model, u, n, counts, include_cold=include_cold)
            items = np.array([i for i, _, _ in rows])
            cold = np.array([label == "cold-start" for _, _, label in rows])
            expected = pairs[items]
            if semantic is not None:
                expected = np.where(cold, semantic[items], expected)
            assert np.array_equal(bits([s for _, s, _ in rows]), bits(expected))
        for i in probe:
            if kind == "mf":
                assert bits(predict_mf(model, u, i)) == bits(pairs[i])
                continue
            assert bits(predict_hybrid(model, u, i)) == bits(pairs[i])
            assert bits(semantic_score(model, u, i)) == bits(semantic[i])
            if i in table:
                assert bits(predict_cold_start(model, u, i)) == bits(semantic[i])


@pytest.mark.parametrize("kind", ["mf", "additive-0.5", "convex-0.3", "additive-0.0"])
def test_a_block_of_users_scores_with_each_users_bits(kind):
    """evaluate_model's block scores are the rows topk and recommend score one user at a time."""
    _, models = random_scoring_models(70, 240, 32, 16, seed=5)
    model = models[kind]
    users = np.arange(70)
    for block in (users[:64], users[64:], users[[3, 9, 40]]):
        rows = model.score_items(block[:, None], slice(None))
        for u, row in zip(block.tolist(), rows):
            assert np.array_equal(bits(row), bits(model.score_items(u, slice(None))))


@pytest.mark.parametrize("kind", ["mf", "additive-0.5", "additive-0.0"])
@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_out_of_range_item_rejected_naming_the_index(kind, where):
    """-1 would wrap to the last item and n_items would overrun: both raise, naming the index."""
    _, models = random_scoring_models(2, 10, 3, 4, seed=9)
    model = models[kind]
    bad = -1 if where == "negative" else model.n_items
    message = rf"^item index {bad} out of range \[0, 10\)$"
    with pytest.raises(IndexError, match=message):
        model.score_items(0, [3, bad])
    with pytest.raises(IndexError, match=message):
        topk(model, 0, 3, exclude={bad})
    with pytest.raises(IndexError, match=message):
        model.predict_pairs(np.array([0, 1]), np.array([3, bad]))
    with pytest.raises(IndexError, match=message):
        rmse(model, RatingTriples(np.array([0]), np.array([bad]), np.array([3.0])))
    with pytest.raises(IndexError, match=rf"^user index {bad - 8} out of range \[0, 2\)$"):
        model.predict_pairs(np.array([bad - 8]), np.array([3]))
    if kind == "mf":
        with pytest.raises(IndexError, match=message):
            predict_mf(model, 0, bad)
        return
    with pytest.raises(IndexError, match=message):
        model.semantic_scores(0, [bad])
    for predict in (predict_hybrid, semantic_score, predict_cold_start):
        with pytest.raises(IndexError, match=message):
            predict(model, 0, bad)


@pytest.mark.parametrize("kind", ["mf", "additive-0.5"])
def test_non_integer_indices_rejected_naming_the_kind(kind):
    """A boolean array would index as a mask and a float would be cut to an integer: both raise."""
    _, models = random_scoring_models(2, 4, 3, 4, seed=9)
    model = models[kind]
    message = r"^item indices must be integers, got dtype (bool|float64)$"
    for items in (np.array([True, False, True, False]), np.array([1.0, 2.0]), 1.7, True):
        with pytest.raises(IndexError, match=message):
            model.score_items(0, items)
    for exclude in (np.array([False, True, False, False]), [1.7], {True}):
        with pytest.raises(IndexError, match=message):
            topk(model, 0, 4, exclude=exclude)
    with pytest.raises(IndexError, match=r"^user indices must be integers, got dtype float64$"):
        model.predict_pairs(np.array([0.0, 1.0]), np.array([1, 2]))
    full = topk(model, 0, 4)
    assert len(full) == 4
    assert topk(model, 0, 4, exclude=[]) == topk(model, 0, 4, exclude=np.array([])) == full


# ---------------------------------------------------------------- reporting

def test_report_json_is_canonical():
    report = EvalReport(0.5, 0.25, 0.1, 1.5, 7, alpha=0.3)
    assert report.to_json() == (
        '{"alpha": 0.3, "coverage": 0.1, "n_users_evaluated": 7, '
        '"precision": 0.5, "recall": 0.25, "rmse": 1.5}'
    )


def test_render_table_shapes():
    reports = [
        EvalReport(0.5, 0.25, 0.1, 1.5, 7, alpha=0.3),
        EvalReport(0.6, 0.30, 0.2, 1.4, 7, alpha=0.5),
    ]
    lines = render_table(reports).splitlines()
    assert len(lines) == 3
    assert "precision%" in lines[0] and "alpha" in lines[0]
    no_alpha = render_table([EvalReport(0.5, 0.25, 0.1, 1.5, 7)])
    assert "alpha" not in no_alpha.splitlines()[0]
