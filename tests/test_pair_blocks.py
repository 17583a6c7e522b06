"""Pair lists scored in blocks: the same bits as one call, and O(block * k) temporaries."""

import tracemalloc

import numpy as np
import pytest

from rexfuse.dataset import ItemTextCorpus, RatingTriples, build_dataset, load_interactions
from rexfuse.hybrid import HybridModel
from rexfuse.mf import (
    _PAIR_BLOCK as B,
    FactorModel,
    fused_factors,
    fusion_weights,
    loss_gradients,
    loss_regularized,
    score_pairs,
)
from rexfuse.semantic import embed_corpus

from conftest import embedding_table
from synth import CLASS_KEYWORDS, FILLER_WORDS, write_ml100k_like

SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 7]
HEADS = [None, ("additive", 0.5), ("convex", 0.3)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def one_shot(model, users, items):
    return np.einsum("...j,...j->...", model.user_factors[users], model.item_factors[items])


def row_dot(a, b):
    """The row-wise einsum of ``mf._row_dot``, which also builds V and the projection's pull."""
    return np.einsum("...j,...j->...", a, b)


def scoring_models(seed=0, n_users=40, n_items=70, k=9, dim=6):
    """An MF model and a hybrid model's ``fused`` and ``semantic`` factor models."""
    rng = np.random.default_rng(seed)
    factors = FactorModel(rng.normal(size=(n_users, k)), rng.normal(size=(n_items, k)))
    table = embedding_table(dim, {i: rng.normal(size=dim) for i in range(0, n_items, 3)})
    hybrid = HybridModel(factors, rng.normal(size=(k, dim)), table, alpha=0.7)
    return {"mf": factors, "fused": hybrid, "semantic": hybrid.semantic}


def random_pairs(rng, n, n_users, n_items):
    return rng.integers(0, n_users, n), rng.integers(0, n_items, n)


@pytest.mark.parametrize("name", ["mf", "fused", "semantic"])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_scores_equal_one_einsum_bitwise(name, n):
    model = scoring_models()[name]
    users, items = random_pairs(np.random.default_rng(n), n, model.n_users, model.n_items)
    got = score_pairs(model, users, items)
    assert same_bits(got, one_shot(model, users, items))
    assert same_bits(model.predict_pairs(users, items), got)


@pytest.mark.parametrize("n", [B + 1, 3 * B + 7])
def test_a_length_one_array_still_broadcasts(n):
    model = scoring_models()["mf"]
    users, items = random_pairs(np.random.default_rng(n), n, model.n_users, model.n_items)
    one_user, one_item = users[:1], items[:1]
    assert same_bits(score_pairs(model, one_user, items), one_shot(model, one_user, items))
    assert same_bits(score_pairs(model, users, one_item), one_shot(model, users, one_item))
    assert score_pairs(model, one_user, items).shape == (n,)


# a last block of users 2 long against items 1 long would broadcast without the length guard
@pytest.mark.parametrize("n_users, n_items", [(B + 2, B + 1), (B + 1, B + 2), (3 * B, 2 * B)])
def test_a_length_mismatch_still_raises(n_users, n_items):
    model = scoring_models()["mf"]
    rng = np.random.default_rng(1)
    users = rng.integers(0, model.n_users, n_users)
    items = rng.integers(0, model.n_items, n_items)
    with pytest.raises(ValueError, match="broadcast"):
        score_pairs(model, users, items)


# ---------------------------------------------------------------- unblocked reference


def unblocked_loss(model, data, reg, projection=None, embeddings=None, alpha=0.0,
                   fusion="additive"):
    """``loss_regularized`` with every pair scored by one einsum."""
    V = None if projection is None else row_dot(embeddings[:, None, :], projection)
    fused = fused_factors(model, V, alpha, fusion)
    err = one_shot(fused, data.users, data.items) - data.ratings
    mse = float(np.mean(err * err))
    user_energy = np.sum(model.user_factors**2, axis=1)
    item_energy = np.sum(model.item_factors**2, axis=1)
    penalty = float(np.mean(user_energy[data.users] + item_energy[data.items]))
    if projection is not None:
        penalty += float(np.sum(projection**2))
    return mse + reg * penalty


def unblocked_gradients(model, data, reg, projection=None, embeddings=None, alpha=0.0,
                        fusion="additive"):
    """``loss_gradients`` with one einsum and one ``np.add.at`` per target over all pairs."""
    P, Q = model.user_factors, model.item_factors
    us, its = data.users, data.items
    V = None if projection is None else row_dot(embeddings[:, None, :], projection)
    fused = fused_factors(model, V, alpha, fusion)
    err = one_shot(fused, us, its) - data.ratings
    cf_w, sem_w = (1.0, 0.0) if projection is None else fusion_weights(alpha, fusion)
    scale = 2.0 / len(data)
    grad_P = scale * reg * np.bincount(us, minlength=model.n_users)[:, None] * P
    grad_Q = scale * reg * np.bincount(its, minlength=model.n_items)[:, None] * Q
    np.add.at(grad_P, us, scale * err[:, None] * fused.item_factors[its])
    item_pull = np.zeros_like(Q)
    np.add.at(item_pull, its, err[:, None] * P[us])
    grad_Q += scale * cf_w * item_pull
    if projection is None:
        return grad_P, grad_Q, None
    return grad_P, grad_Q, 2.0 * reg * projection + scale * sem_w * row_dot(
        item_pull.T[:, None, :], embeddings.T
    )


def head_kwargs(head, rng, k, n_items, dim=6):
    if head is None:
        return {}
    fusion, alpha = head
    E = rng.normal(size=(n_items, dim))
    E[::4] = 0.0  # items without text
    return dict(projection=rng.normal(size=(k, dim)), embeddings=E, alpha=alpha, fusion=fusion)


def assert_loss_and_gradients_match_unblocked(model, data, reg, kwargs):
    assert loss_regularized(model, data, reg, **kwargs) == unblocked_loss(model, data, reg, **kwargs)
    got = loss_gradients(model, data, reg, **kwargs)
    expected = unblocked_gradients(model, data, reg, **kwargs)
    for g, e in zip(got, expected):
        assert (g is None and e is None) or same_bits(g, e)


@pytest.mark.parametrize("head", HEADS, ids=["mf", "additive", "convex"])
@pytest.mark.parametrize("n", [1, B, 3 * B + 7])
def test_loss_and_gradients_equal_unblocked_reference_bitwise(head, n):
    rng = np.random.default_rng(n)
    n_users, n_items, k = 30, 50, 8  # far fewer rows than pairs: every row is hit many times
    model = FactorModel(rng.normal(size=(n_users, k)), rng.normal(size=(n_items, k)))
    users, items = random_pairs(rng, n, n_users, n_items)
    data = RatingTriples(users, items, rng.integers(1, 6, n).astype(np.float64))
    kwargs = head_kwargs(head, rng, k, n_items)
    assert_loss_and_gradients_match_unblocked(model, data, 0.05, kwargs)


def test_hybrid_gradients_equal_unblocked_reference_on_the_ml100k_stand_in(tmp_path):
    path = tmp_path / "u.data"
    write_ml100k_like(str(path))
    ds = build_dataset(load_interactions(str(path), "movielens100k"), split_seed=42)
    rng = np.random.default_rng(15)
    words = FILLER_WORDS + CLASS_KEYWORDS
    texts = {
        i: " ".join(rng.choice(words, size=rng.integers(3, 12)))
        for i in range(ds.n_items) if i % 12
    }
    E = embed_corpus(ItemTextCorpus(texts=texts), 64).dense(ds.n_items)
    k = 32
    model = FactorModel(rng.uniform(-0.05, 0.05, (ds.n_users, k)),
                        rng.uniform(-0.05, 0.05, (ds.n_items, k)))
    kwargs = dict(projection=rng.uniform(-0.05, 0.05, (k, 64)), embeddings=E, alpha=0.5)
    assert len(ds.train) > 60 * B
    assert_loss_and_gradients_match_unblocked(model, ds.train, 0.02, kwargs)


# ---------------------------------------------------------------- memory

N_PAIRS, K = 300_000, 32
# one-shot gathers of P[users] and Q[items] alone take 2 * N * k * 8 B = 153.6 MB here
PEAK_BOUND = 16 * 2**20


def traced_peak(fn):
    """Peak traced allocation of ``fn()`` above what was allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("head", [None, ("additive", 0.5)], ids=["mf", "hybrid"])
@pytest.mark.parametrize("fn", [loss_regularized, loss_gradients])
def test_loss_and_gradients_hold_no_n_by_k_temporaries(fn, head):
    rng = np.random.default_rng(3)
    n_users, n_items = 3000, 4000
    model = FactorModel(rng.normal(size=(n_users, K)), rng.normal(size=(n_items, K)))
    users, items = random_pairs(rng, N_PAIRS, n_users, n_items)
    data = RatingTriples(users, items, rng.integers(1, 6, N_PAIRS).astype(np.float64))
    kwargs = head_kwargs(head, rng, K, n_items, dim=16)
    peak = traced_peak(lambda: fn(model, data, 0.02, **kwargs))
    assert peak < PEAK_BOUND, f"{fn.__name__} peaked at {peak / 2**20:.1f} MB"
