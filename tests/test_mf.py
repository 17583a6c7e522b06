import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexfuse.dataset import RatingTriples, build_dataset, load_interactions
from rexfuse.mf import (
    FactorModel,
    TrainConfig,
    TrainingDiverged,
    conflict_free_levels,
    conflict_free_runs,
    init_factors,
    loss_gradients,
    loss_mse,
    loss_regularized,
    predict_mf,
    score_pairs,
    train_mf,
)

from conftest import dense_dataset, random_interactions, triple_rows
from oracles import (
    central_differences,
    full_batch_gd,
    loss_eq6_naive,
    mse_resum,
    sgd_sequential_reference,
)
from synth import write_ml100k_like


def rank1_dataset():
    # ratings = outer([1,2,3], [1,1,1])
    rows = [(u, i, float(u + 1)) for u in range(3) for i in range(3)]
    return dense_dataset(rows, 3, 3)


# ---------------------------------------------------------------- config / init

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_factors=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(reg=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("seed", -1, "non-negative"),
        ("seed", 1.5, "non-negative"),
        ("seed", True, "non-negative"),
        ("n_factors", 2.5, "positive"),
        ("n_factors", 0, "positive"),
        ("epochs", 2.5, "positive"),
        ("epochs", "3", "positive"),
    ],
)
def test_config_integer_fields_rejected_naming_the_field(field, value, kind):
    with pytest.raises(ValueError, match=f"^{field} must be a {kind} integer, got {value!r}$"):
        TrainConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = TrainConfig(n_factors=np.int64(4), epochs=np.int32(2), seed=np.uint8(0))
    assert (cfg.n_factors, cfg.epochs, cfg.seed) == (4, 2, 0)


@pytest.mark.parametrize("field", ["learning_rate", "reg", "init_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", True), ("reg", False), ("init_scale", True), ("reg", np.True_),
     ("learning_rate", "0.1"), ("reg", None), ("init_scale", 1j)],
)
def test_config_rejects_booleans_as_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and .*, got {value}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "P, Q",
    [(np.ones((3, 4)), np.arange(5.0)[:, None]), (np.ones(4), np.ones((5, 4))),
     (np.ones((3, 4)), np.ones((2, 5, 4))), (np.ones((3, 4)), 1.0)],
    ids=["unequal-widths", "flat-users", "3-d-items", "scalar-items"],
)
def test_factor_model_refuses_factors_that_are_not_2d_and_equally_wide(P, Q):
    with pytest.raises(ValueError) as info:
        FactorModel(P, Q)
    assert str(info.value) == (
        f"user factors {np.shape(P)} and item factors {np.shape(Q)} must be 2-D and equally wide"
    )


def test_init_factors_deterministic_and_shaped():
    cfg = TrainConfig(n_factors=4, seed=77)
    a = init_factors(3, 5, cfg)
    b = init_factors(3, 5, cfg)
    assert a.user_factors.shape == (3, 4)
    assert a.item_factors.shape == (5, 4)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.item_factors, b.item_factors)
    assert np.abs(a.user_factors).max() <= cfg.init_scale


def test_init_scale_zero_gives_zero_matrices():
    model = init_factors(2, 2, TrainConfig(init_scale=0.0))
    assert not model.user_factors.any()
    assert not model.item_factors.any()


def test_init_factors_zero_counts_rejected():
    with pytest.raises(ValueError):
        init_factors(0, 3, TrainConfig())


# ---------------------------------------------------------------- prediction

def test_predict_mf_hand_case():
    model = FactorModel(np.array([[1.0, 0.0]]), np.array([[0.5, 2.0]]))
    assert predict_mf(model, 0, 0) == 0.5


def test_predict_mf_zero_item_annihilates():
    rng = np.random.default_rng(1)
    model = FactorModel(rng.normal(size=(4, 3)), np.zeros((2, 3)))
    assert all(predict_mf(model, u, 1) == 0.0 for u in range(4))


def test_predict_mf_out_of_range():
    model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(IndexError):
        predict_mf(model, 2, 0)
    with pytest.raises(IndexError):
        predict_mf(model, 0, 3)


# ---------------------------------------------------------------- losses

def test_loss_mse_hand_cases():
    assert loss_mse([(1.0, 1.0), (2.5, 2.5)]) == 0.0
    assert loss_mse([(1.0, 3.0)]) == 4.0
    with pytest.raises(ValueError):
        loss_mse([])


def test_loss_mse_matches_resummation():
    rng = np.random.default_rng(2)
    pairs = [(float(a), float(b)) for a, b in rng.normal(size=(1000, 2))]
    expected = mse_resum(pairs)
    got = loss_mse(pairs)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_loss_regularized_reduces_to_mse_at_zero_reg():
    rng = np.random.default_rng(3)
    model = FactorModel(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
    data = RatingTriples.from_rows(
        [(u, i, float(rng.normal())) for u in range(4) for i in range(5)]
    )
    pairs = [(predict_mf(model, u, i), y) for u, i, y in triple_rows(data)]
    assert loss_regularized(model, data, reg=0.0) == pytest.approx(loss_mse(pairs), rel=1e-15)


def test_loss_regularized_hand_norm():
    model = FactorModel(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
    data = RatingTriples.from_rows([(0, 0, 2.0)])  # prediction is exactly 2
    assert loss_regularized(model, data, reg=0.1) == pytest.approx(0.4, abs=1e-15)


def test_loss_regularized_matches_naive_oracle():
    rng = np.random.default_rng(4)
    model = FactorModel(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)))
    data = RatingTriples.from_rows(
        [(int(rng.integers(4)), int(rng.integers(6)), float(rng.normal())) for _ in range(30)]
    )
    expected = loss_eq6_naive(
        model.user_factors.tolist(), model.item_factors.tolist(), triple_rows(data), 0.07
    )
    got = loss_regularized(model, data, reg=0.07)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_loss_regularized_shape_mismatch():
    model = FactorModel(np.zeros((2, 3)), np.zeros((2, 3)))
    data = RatingTriples.from_rows([(0, 0, 1.0)])
    with pytest.raises(ValueError):
        loss_regularized(model, data, reg=0.0, projection=np.zeros((4, 5)), embeddings=np.zeros((2, 5)))


# a 5-item, 4-factor model against heads that break E (n_items, d), W (n_factors, d)
WRONG_HEADS = {
    "one-row-projection": (np.ones((1, 6)), np.ones((5, 6))),
    "one-row-embeddings": (np.ones((4, 6)), np.ones((1, 6))),
    "seven-row-embeddings": (np.ones((4, 4)), np.ones((7, 4))),
    "narrower-embeddings": (np.ones((4, 6)), np.ones((5, 5))),
    "flat-embeddings": (np.ones((4, 5)), np.ones(5)),
    "no-embeddings": (np.ones((4, 6)), None),
}


@pytest.mark.parametrize("W, E", WRONG_HEADS.values(), ids=WRONG_HEADS)
@pytest.mark.parametrize("loss", [loss_regularized, loss_gradients])
def test_losses_refuse_a_head_that_does_not_fit_the_model(loss, W, E):
    rng = np.random.default_rng(6)
    model = FactorModel(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
    data = RatingTriples.from_rows([(0, 0, 1.0), (1, 4, 2.0), (2, 1, 3.0)])
    with pytest.raises(ValueError) as info:
        loss(model, data, 0.1, projection=W, embeddings=E, alpha=0.5)
    assert str(info.value) == (
        f"projection shape {np.shape(W)} and embeddings shape {np.shape(E)} "
        "do not match 4 factors and 5 items"
    )


@pytest.mark.parametrize("loss", [loss_regularized, loss_gradients])
def test_losses_refuse_empty_data(loss):
    model = FactorModel(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError) as info:
        loss(model, RatingTriples.empty(), 0.1)
    assert str(info.value) == f"{loss.__name__} needs at least one interaction"


@pytest.mark.parametrize("head", [False, True])
@pytest.mark.parametrize("loss", [loss_regularized, loss_gradients])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([(-1, 0, 1.0), (0, -2, 2.0)], "user index -1 out of range [0, 3)"),
        ([(0, 0, 1.0), (2, 4, 2.0)], "item index 4 out of range [0, 4)"),
        ([(0, 0, 1.0), (3, 1, 2.0)], "user index 3 out of range [0, 3)"),
    ],
)
def test_losses_refuse_an_index_out_of_range(loss, rows, message, head):
    """-1 would read the last row (loss_regularized returned 0.9) and 3 would overrun: both raise."""
    model = FactorModel(np.ones((3, 2)), np.ones((4, 2)))
    fused = dict(projection=np.ones((2, 5)), embeddings=np.ones((4, 5)), alpha=0.5) if head else {}
    with pytest.raises(IndexError) as info:
        loss(model, RatingTriples.from_rows(rows), 0.1, **fused)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "pairs, shape",
    [([(1.0, 2.0, 99.0)], (1, 3)), ([1.0, 2.0], (2,)), ([], (0,)), ([()], (1, 0))],
)
def test_loss_mse_accepts_only_predicted_actual_pairs(pairs, shape):
    """A third column was ignored and a flat list failed inside numpy: both name the shape."""
    with pytest.raises(ValueError) as info:
        loss_mse(pairs)
    assert str(info.value) == (
        f"loss_mse needs at least one (predicted, actual) pair, got shape {shape}"
    )


# ---------------------------------------------------------------- gradients

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    model = FactorModel(
        rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(-0.5, 0.5, (5, 3))
    )
    data = RatingTriples.from_rows(
        [(int(rng.integers(4)), int(rng.integers(5)), float(rng.normal(3.0, 1.0))) for _ in range(12)]
    )
    reg = 0.03
    grad_P, grad_Q, grad_W = loss_gradients(model, data, reg)
    assert grad_W is None

    fd_P = central_differences(lambda: loss_regularized(model, data, reg), model.user_factors)
    fd_Q = central_differences(lambda: loss_regularized(model, data, reg), model.item_factors)
    for analytic, fd in ((grad_P, fd_P), (grad_Q, fd_Q)):
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


# ---------------------------------------------------------------- training

def test_train_rank1_fits_and_matches_full_batch_oracle():
    ds = rank1_dataset()
    cfg = TrainConfig(n_factors=1, learning_rate=0.05, reg=0.0, epochs=200, seed=7)
    model, losses = train_mf(ds, cfg)
    assert losses[-1] < 1e-3

    rng = np.random.default_rng(100)
    P = rng.uniform(-0.1, 0.1, (3, 1))
    Q = rng.uniform(-0.1, 0.1, (3, 1))
    triples = triple_rows(ds.train)
    full_batch_gd(P, Q, triples, lam=0.0, lr=0.4, iters=4000)
    for u, i, _ in triples:
        assert abs(predict_mf(model, u, i) - float(P[u] @ Q[i])) < 1e-6


def test_train_is_deterministic():
    rng = np.random.default_rng(8)
    ds = build_dataset(random_interactions(rng, 40), split_seed=3)
    cfg = TrainConfig(n_factors=4, epochs=5, seed=21)
    a, la = train_mf(ds, cfg)
    b, lb = train_mf(ds, cfg)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.item_factors, b.item_factors)
    assert la == lb


def assert_train_matches_sequential_reference(ds, cfg):
    model, losses = train_mf(ds, cfg)
    ref = init_factors(ds.n_users, ds.n_items, cfg)
    t = ds.train
    ref_losses = sgd_sequential_reference(
        ref.user_factors, ref.item_factors, t.users, t.items, t.ratings,
        cfg.learning_rate, cfg.reg, cfg.seed, cfg.epochs,
        lambda: loss_regularized(ref, t, cfg.reg),
    )
    assert np.array_equal(model.user_factors, ref.user_factors)
    assert np.array_equal(model.item_factors, ref.item_factors)
    assert losses == ref_losses


def test_train_matches_sequential_reference_bitwise_with_repeats():
    rng = np.random.default_rng(12)
    rows = [
        (int(rng.integers(0, 6)), int(rng.integers(0, 7)), float(rng.integers(1, 6)))
        for _ in range(150)
    ]
    rows += rows[:40]  # duplicate (user, item) pairs on top of the random repeats
    cfg = TrainConfig(n_factors=5, learning_rate=0.02, epochs=6, seed=3)
    assert_train_matches_sequential_reference(dense_dataset(rows, 6, 7), cfg)


def test_train_matches_sequential_reference_bitwise_with_2_16_levels():
    """One user's 65536 visits form one level each: the top level no longer fits uint16."""
    rows = [(0, k % 3, float(1 + k % 5)) for k in range(1 << 16)]
    cfg = TrainConfig(n_factors=2, learning_rate=0.01, epochs=1, seed=5)
    assert_train_matches_sequential_reference(dense_dataset(rows, 1, 3), cfg)


def test_train_matches_sequential_reference_bitwise_at_ml100k_scale(tmp_path):
    path = tmp_path / "u.data"
    write_ml100k_like(str(path))
    ds = build_dataset(load_interactions(str(path), "movielens100k"), split_seed=42)
    cfg = TrainConfig(n_factors=32, learning_rate=0.02, epochs=2, seed=11)
    assert_train_matches_sequential_reference(ds, cfg)


def test_one_level_epoch_steps_from_score_pairs_errors():
    """No user or item repeats, so the epoch is one level: its errors are score_pairs' bits."""
    n = 300
    rng = np.random.default_rng(5)
    rows = [(u, int(i), float(rng.integers(1, 6))) for u, i in enumerate(rng.permutation(n))]
    ds = dense_dataset(rows, n, n)
    cfg = TrainConfig(n_factors=32, learning_rate=0.02, epochs=1, seed=9)
    start, t = init_factors(n, n, cfg), ds.train
    assert conflict_free_levels(t.users, t.items, n, n).max() == 1
    err = (score_pairs(start, t.users, t.items) - t.ratings)[:, None]
    pu, qi = start.user_factors[t.users], start.item_factors[t.items]
    lr, lam = cfg.learning_rate, cfg.reg
    P, Q = start.user_factors.copy(), start.item_factors.copy()
    P[t.users] = pu - lr * (err * qi + lam * pu)
    Q[t.items] = qi - lr * (err * pu + lam * qi)

    model, _ = train_mf(ds, cfg)
    assert np.array_equal(model.user_factors, P)
    assert np.array_equal(model.item_factors, Q)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=80))
def test_conflict_free_levels_properties(pairs):
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([i for _, i in pairs], dtype=np.int64)
    levels = conflict_free_levels(users, items, 6, 8).tolist()
    assert len(levels) == len(pairs)
    for k, (u, i) in enumerate(pairs):
        earlier = [levels[j] for j in range(k) if pairs[j][0] == u or pairs[j][1] == i]
        assert levels[k] == 1 + max(earlier, default=0)  # above every earlier touch, no gap

    by_level = {}
    for k, level in enumerate(levels):
        by_level.setdefault(level, []).append(k)
    assert sorted(by_level) == list(range(1, len(by_level) + 1))
    for members in by_level.values():
        assert len({pairs[k][0] for k in members}) == len(members)
        assert len({pairs[k][1] for k in members}) == len(members)
    visited = sorted(k for members in by_level.values() for k in members)
    assert visited == list(range(len(pairs)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=80),
    st.integers(1, 12),
)
def test_conflict_free_runs_properties(pairs, cap):
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([i for _, i in pairs], dtype=np.int64)
    bounds = conflict_free_runs(users, items, 6, 8, cap=cap).tolist()
    assert bounds[0] == 0 and bounds[-1] == len(pairs)  # the runs partition the visits, in order
    for lo, hi in zip(bounds, bounds[1:]):
        run = pairs[lo:hi]
        assert 1 <= len(run) <= cap
        run_users, run_items = {u for u, _ in run}, {i for _, i in run}
        assert len(run_users) == len(run) and len(run_items) == len(run)
        if hi < len(pairs):  # maximal: the next visit repeats a row, or the run is full
            u, i = pairs[hi]
            assert len(run) == cap or u in run_users or i in run_items


def test_heavy_regularization_shrinks_norms():
    rng = np.random.default_rng(9)
    ds = build_dataset(random_interactions(rng, 60), split_seed=2)
    norms = []
    for epochs in range(1, 9):
        cfg = TrainConfig(n_factors=4, learning_rate=0.005, reg=10.0, epochs=epochs, seed=5)
        model, _ = train_mf(ds, cfg)
        norms.append(
            float(np.sum(model.user_factors**2) + np.sum(model.item_factors**2))
        )
    for before, after in zip(norms[2:], norms[3:]):
        assert after <= before


def test_training_loss_decreases_early():
    rng = np.random.default_rng(10)
    ds = build_dataset(random_interactions(rng, 400, n_users=30, n_items=40), split_seed=7)
    _, losses = train_mf(ds, TrainConfig(n_factors=8, epochs=5, seed=1))
    assert losses[4] < losses[0]


def test_divergence_raises_with_epoch():
    rng = np.random.default_rng(11)
    ds = build_dataset(random_interactions(rng, 100), split_seed=1)
    cfg = TrainConfig(n_factors=4, learning_rate=50.0, epochs=20, seed=1)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train_mf(ds, cfg)


def test_train_empty_split_rejected():
    ds = dense_dataset([], 1, 1)
    with pytest.raises(ValueError):
        train_mf(ds, TrainConfig())
