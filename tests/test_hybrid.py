import numpy as np
import pytest

from rexfuse import mf
from rexfuse.dataset import ItemTextCorpus, RatingTriples
from rexfuse.hybrid import (
    HybridModel,
    predict_cold_start,
    predict_hybrid,
    resolve_embeddings,
    semantic_score,
    train_hybrid,
)
from rexfuse.mf import (
    FactorModel,
    TrainConfig,
    TrainingDiverged,
    fusion_weights,
    init_factors,
    loss_gradients,
    loss_regularized,
    predict_mf,
    train_mf,
)
from rexfuse.dataset import build_dataset, load_interactions
from rexfuse.evaluate import EvalConfig, evaluate_model
from rexfuse.semantic import embed_corpus

from conftest import dense_dataset, embedding_table, random_interactions, triple_rows
from oracles import (
    central_differences,
    dot_naive,
    full_batch_gd,
    matvec_naive,
    sgd_sequential_reference,
)
from synth import CLASS_KEYWORDS, FILLER_WORDS, write_ml100k_like


def make_model(P, Q, W, vectors, alpha, fusion="additive"):
    W = np.asarray(W, float)
    return HybridModel(
        factors=FactorModel(np.asarray(P, float), np.asarray(Q, float)),
        projection=W,
        embeddings=embedding_table(W.shape[1], vectors),
        alpha=alpha,
        fusion=fusion,
    )


def random_instance(seed, n_users=3, n_items=4, k=2, dim=5, alpha=0.6):
    rng = np.random.default_rng(seed)
    vectors = {i: rng.normal(size=dim) for i in range(n_items)}
    return make_model(
        rng.normal(size=(n_users, k)),
        rng.normal(size=(n_items, k)),
        rng.normal(size=(k, dim)),
        vectors,
        alpha,
    )


# ---------------------------------------------------------------- scoring

def test_semantic_score_hand_case():
    # W @ E_0 = [2, 0], P_0 = [1, 0]
    model = make_model(
        P=[[1.0, 0.0]], Q=[[0.0, 0.0]],
        W=[[2.0, 0.0], [0.0, 0.0]], vectors={0: [1.0, 0.0]}, alpha=1.0,
    )
    assert semantic_score(model, 0, 0) == 2.0


def test_semantic_score_missing_embedding_is_zero():
    model = make_model(
        P=[[1.0, 1.0]], Q=[[1.0, 1.0], [1.0, 1.0]],
        W=np.ones((2, 3)), vectors={0: [1.0, 2.0, 3.0]}, alpha=1.0,
    )
    assert semantic_score(model, 0, 1) == 0.0


def test_semantic_score_matches_naive_oracle():
    model = random_instance(17)
    for u in range(model.n_users):
        for i in range(model.n_items):
            expected = dot_naive(
                model.factors.user_factors[u].tolist(),
                matvec_naive(
                    model.projection.tolist(), model.embeddings.dense(model.n_items)[i].tolist()
                ),
            )
            got = semantic_score(model, u, i)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_predict_hybrid_hand_case():
    model = make_model(
        P=[[1.0, 0.0]], Q=[[0.0, 1.0]],
        W=[[2.0, 0.0], [0.0, 0.0]], vectors={0: [1.0, 0.0]}, alpha=0.5,
    )
    # cf = 0, semantic = 2 -> 0 + 0.5 * 2
    assert predict_hybrid(model, 0, 0) == 1.0


def test_predict_hybrid_alpha_zero_is_exactly_mf():
    model = random_instance(23, alpha=0.0)
    for u in range(model.n_users):
        for i in range(model.n_items):
            assert predict_hybrid(model, u, i) == predict_mf(model.factors, u, i)


def test_predict_hybrid_affine_in_alpha():
    base = random_instance(29, alpha=0.0)
    scores = {}
    for alpha in (0.0, 1.0, 2.0):
        model = make_model(
            base.factors.user_factors, base.factors.item_factors,
            base.projection, dict(zip(base.embeddings.items, base.embeddings.vectors)),
            alpha,
        )
        scores[alpha] = np.array(
            [predict_hybrid(model, u, i) for u in range(base.n_users) for i in range(base.n_items)]
        )
    lower = scores[1.0] - scores[0.0]
    upper = scores[2.0] - scores[1.0]
    assert np.all(np.abs(upper - lower) <= 1e-12 * np.maximum(1.0, np.abs(scores[2.0]))), (
        "fused score must be affine in the fusion weight"
    )


def test_convex_fusion_blends():
    model = make_model(
        P=[[1.0, 0.0]], Q=[[3.0, 0.0]],
        W=[[1.0, 0.0], [0.0, 0.0]], vectors={0: [1.0, 0.0]}, alpha=0.25,
        fusion="convex",
    )
    # 0.75 * 3 + 0.25 * 1
    assert predict_hybrid(model, 0, 0) == pytest.approx(2.5, abs=1e-15)


# ---------------------------------------------------------------- cold start

def test_cold_start_hand_case():
    model = make_model(
        P=[[1.0, 1.0]], Q=[[9.0, 9.0]],
        W=[[0.5, 0.0], [0.0, 0.5]], vectors={0: [1.0, 1.0]}, alpha=0.5,
    )
    assert predict_cold_start(model, 0, 0) == 1.0


def test_cold_start_zero_embedding_scores_zero():
    model = make_model(
        P=[[1.0, 1.0]], Q=[[9.0, 9.0]],
        W=np.ones((2, 2)), vectors={0: [0.0, 0.0]}, alpha=0.5,
    )
    assert predict_cold_start(model, 0, 0) == 0.0


def test_cold_start_without_content_errors():
    model = make_model(
        P=[[1.0]], Q=[[1.0], [1.0]],
        W=[[1.0, 1.0]], vectors={0: [1.0, 1.0]}, alpha=0.5,
    )
    with pytest.raises(ValueError, match="cold item without content"):
        predict_cold_start(model, 0, 1)


def test_cold_start_never_reads_item_factors():
    model = random_instance(31)
    before = [predict_cold_start(model, u, 2) for u in range(model.n_users)]
    model.factors.item_factors[2] = 1e6  # scribble over the cold item's row
    after = [predict_cold_start(model, u, 2) for u in range(model.n_users)]
    assert before == after



@pytest.mark.parametrize(
    "fusion, alpha", [("additive", 0.0), ("convex", 0.0), ("additive", 0.5), ("convex", 0.3),
                      ("convex", 1.0)],
)
def test_hybrid_model_is_the_factor_model_of_its_fused_score(fusion, alpha):
    rng = np.random.default_rng(31)
    ds = build_dataset(random_interactions(rng, 400, n_users=20, n_items=30), split_seed=3)
    k, dim = 4, 6
    factors = FactorModel(rng.normal(size=(ds.n_users, k)), rng.normal(size=(ds.n_items, k)))
    table = embedding_table(dim, {i: rng.normal(size=dim) for i in range(ds.n_items) if i % 4})
    model = HybridModel(factors, rng.normal(size=(k, dim)), table, alpha, fusion)
    assert isinstance(model, FactorModel)
    assert model.user_factors is factors.user_factors
    cf_w, sem_w = fusion_weights(alpha, fusion)
    if sem_w == 0.0:
        assert model.item_factors is factors.item_factors
    else:
        expected = cf_w * factors.item_factors + sem_w * model.semantic.item_factors
        assert model.item_factors.tobytes() == expected.tobytes()
    plain = FactorModel(model.user_factors, model.item_factors)
    config = EvalConfig(top_k=5)
    assert evaluate_model(model, ds, config) == evaluate_model(plain, ds, config)

# ---------------------------------------------------------------- training

def hybrid_toy_dataset():
    rng = np.random.default_rng(40)
    rows = [
        (int(rng.integers(5)), int(rng.integers(6)), float(rng.integers(1, 6)))
        for _ in range(50)
    ]
    ds = dense_dataset(rows, 5, 6)
    table = embedding_table(
        4, {i: np.random.default_rng(50 + i).normal(size=4) for i in range(6)}
    )
    return ds, table


@pytest.mark.parametrize("fusion", ["additive", "convex"])
def test_alpha_zero_training_matches_mf_bitwise(fusion):
    ds, table = hybrid_toy_dataset()
    cfg = TrainConfig(n_factors=3, epochs=8, seed=13)
    mf_model, _ = train_mf(ds, cfg)
    hy_model, _ = train_hybrid(ds, table, cfg, alpha=0.0, fusion=fusion)
    assert np.array_equal(mf_model.user_factors, hy_model.factors.user_factors)
    assert np.array_equal(mf_model.item_factors, hy_model.factors.item_factors)


@pytest.mark.parametrize("fusion", ["additive", "convex"])
def test_alpha_zero_projection_gets_pure_decay(fusion):
    ds, table = hybrid_toy_dataset()
    cfg = TrainConfig(n_factors=3, epochs=8, seed=13)
    hy_model, _ = train_hybrid(ds, table, cfg, alpha=0.0, fusion=fusion)

    rng = np.random.default_rng(cfg.seed)
    rng.uniform(-cfg.init_scale, cfg.init_scale, (ds.n_users, cfg.n_factors))
    rng.uniform(-cfg.init_scale, cfg.init_scale, (ds.n_items, cfg.n_factors))
    w0 = rng.uniform(-cfg.init_scale, cfg.init_scale, (cfg.n_factors, table.dim))
    touches = cfg.epochs * len(ds.train)
    expected = w0 * (1.0 - cfg.learning_rate * cfg.reg) ** touches
    assert np.allclose(hy_model.projection, expected, rtol=1e-9)


def test_joint_gradients_match_finite_differences():
    rng = np.random.default_rng(44)
    model = FactorModel(rng.uniform(-0.5, 0.5, (3, 2)), rng.uniform(-0.5, 0.5, (4, 2)))
    W = rng.uniform(-0.5, 0.5, (2, 5))
    E = rng.normal(size=(4, 5))
    data = RatingTriples.from_rows(
        [(int(rng.integers(3)), int(rng.integers(4)), float(rng.normal(3, 1))) for _ in range(10)]
    )
    for fusion, alpha in (("additive", 0.7), ("convex", 0.4)):
        kwargs = dict(projection=W, embeddings=E, alpha=alpha, fusion=fusion)
        grad_P, grad_Q, grad_W = loss_gradients(model, data, 0.05, **kwargs)
        loss = lambda: loss_regularized(model, data, 0.05, **kwargs)
        for analytic, array in ((grad_P, model.user_factors),
                                (grad_Q, model.item_factors),
                                (grad_W, W)):
            fd = central_differences(loss, array)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4, fusion


def test_rank1_with_informative_text_fits_and_matches_oracle():
    # ratings = a_u * b_i; item text flags whether b_i is high or low
    a = np.array([0.6, 1.0, 1.4, 1.8])
    b = np.array([0.5, 1.5, 0.5, 1.5, 0.5, 1.5])
    rows = [(u, i, float(a[u] * b[i])) for u in range(4) for i in range(6)]
    ds = dense_dataset(rows, 4, 6)
    corpus = ItemTextCorpus(texts={i: ("high" if b[i] > 1 else "low") for i in range(6)})
    cfg = TrainConfig(n_factors=1, learning_rate=0.05, reg=0.01, epochs=600, seed=3)
    model, losses = train_hybrid(ds, corpus, cfg, alpha=0.5, embed_dim=4)

    pairs = [(predict_hybrid(model, u, i), y) for u, i, y in triple_rows(ds.train)]
    mse = float(np.mean([(p - y) ** 2 for p, y in pairs]))
    assert mse < 1e-2

    rng = np.random.default_rng(777)
    P = rng.uniform(-0.1, 0.1, (4, 1))
    Q = rng.uniform(-0.1, 0.1, (6, 1))
    W = rng.uniform(-0.1, 0.1, (1, 4))
    E = model.embeddings.dense(6)
    oracle_loss = full_batch_gd(
        P, Q, triple_rows(ds.train), lam=0.01, lr=0.3, iters=8000, W=W, E=E, alpha=0.5
    )
    assert losses[-1] == pytest.approx(oracle_loss, rel=0.1)


@pytest.mark.parametrize("dim", [0, -3])
def test_train_hybrid_refuses_an_embed_dim_below_one(dim):
    """Only ``None`` takes the default width: 0 is refused like any other dim below 1."""
    ds = dense_dataset([(0, 0, 4.0), (1, 1, 2.0)], 2, 2)
    corpus = ItemTextCorpus(texts={0: "red", 1: "blue"})
    with pytest.raises(ValueError, match=rf"^embedding dim must be >= 1, got {dim}$"):
        train_hybrid(ds, corpus, TrainConfig(n_factors=2, epochs=1), alpha=0.5, embed_dim=dim)


def test_train_hybrid_deterministic():
    ds, table = hybrid_toy_dataset()
    cfg = TrainConfig(n_factors=3, epochs=6, seed=2)
    a, la = train_hybrid(ds, table, cfg, alpha=0.4)
    b, lb = train_hybrid(ds, table, cfg, alpha=0.4)
    assert np.array_equal(a.factors.user_factors, b.factors.user_factors)
    assert np.array_equal(a.factors.item_factors, b.factors.item_factors)
    assert np.array_equal(a.projection, b.projection)
    assert la == lb


def wide_hybrid_dataset():
    """20 users x 30 items: long enough runs for the fused step to overflow inside one."""
    rng = np.random.default_rng(20)
    rows = [
        (int(rng.integers(20)), int(rng.integers(30)), float(rng.integers(1, 6)))
        for _ in range(200)
    ]
    table = embedding_table(8, {i: rng.normal(size=8) for i in range(30)})
    return dense_dataset(rows, 20, 30), table


@pytest.mark.parametrize("fusion", ["additive", "convex"])
@pytest.mark.parametrize("lr", [5.0, 80.0, 1e6, 1e100])
@pytest.mark.parametrize("data", [hybrid_toy_dataset, wide_hybrid_dataset])
def test_train_hybrid_divergence_raises(data, lr, fusion):
    ds, table = data()
    cfg = TrainConfig(n_factors=3, learning_rate=lr, epochs=10, seed=2)
    with pytest.raises(TrainingDiverged, match="epoch 1;"):
        train_hybrid(ds, table, cfg, alpha=0.5, fusion=fusion)


def test_train_hybrid_divergence_through_singular_solve_raises(monkeypatch):
    # Once values overflow, LAPACK's pivoting can meet an exact zero pivot in
    # the unit lower-triangular run system; that must end in TrainingDiverged.
    solve, singular = np.linalg.solve, []

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    ds, table = wide_hybrid_dataset()
    cfg = TrainConfig(n_factors=4, learning_rate=20.0, epochs=10, seed=2)
    with pytest.raises(TrainingDiverged, match="epoch 1;"):
        train_hybrid(ds, table, cfg, alpha=0.5)
    assert singular, "this case no longer reaches a singular solve; pick another"


# ---------------------------------------------------------------- run-batched fused step

def assert_close(got, expected):
    """Equal to rounding: within 1e-10 of the reference, relative to its largest entry."""
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


def assert_train_hybrid_matches_sequential_reference(ds, table, cfg, alpha, fusion):
    model, losses = train_hybrid(ds, table, cfg, alpha=alpha, fusion=fusion)
    rng = np.random.default_rng(cfg.seed)
    ref = init_factors(ds.n_users, ds.n_items, cfg, rng=rng)
    W = rng.uniform(-cfg.init_scale, cfg.init_scale, (cfg.n_factors, table.dim))
    E = table.dense(ds.n_items)
    t = ds.train
    ref_losses = sgd_sequential_reference(
        ref.user_factors, ref.item_factors, t.users, t.items, t.ratings,
        cfg.learning_rate, cfg.reg, cfg.seed, cfg.epochs,
        lambda: loss_regularized(
            ref, t, cfg.reg, projection=W, embeddings=E, alpha=alpha, fusion=fusion
        ),
        head=(W, E, alpha, fusion),
    )
    assert_close(model.factors.user_factors, ref.user_factors)
    assert_close(model.factors.item_factors, ref.item_factors)
    assert_close(model.projection, W)
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-10)


def unit_vectors(rng, items, dim):
    """Unit-norm embedding rows, as the hashed bag-of-words provider gives."""
    return {i: v / np.linalg.norm(v) for i in items for v in [rng.normal(size=dim)]}


def rows_with_repeats(rng, n_rows, n_users, n_items):
    rows = [
        (int(rng.integers(n_users)), int(rng.integers(n_items)), float(rng.integers(1, 6)))
        for _ in range(n_rows)
    ]
    return rows + rows[: n_rows // 4]  # duplicate (user, item) pairs on top of random repeats


@pytest.mark.parametrize("fusion, alpha", [("additive", 0.5), ("convex", 0.3), ("convex", 1.0)])
def test_train_hybrid_matches_sequential_reference_with_repeats(fusion, alpha):
    rng = np.random.default_rng(12)
    ds = dense_dataset(rows_with_repeats(rng, 160, 6, 7), 6, 7)
    table = embedding_table(5, unit_vectors(rng, range(7), 5))
    cfg = TrainConfig(n_factors=4, learning_rate=0.05, reg=0.1, epochs=6,
                      init_scale=0.5, seed=3)
    assert_train_hybrid_matches_sequential_reference(ds, table, cfg, alpha, fusion)


@pytest.mark.parametrize("fusion, alpha", [("additive", 0.5), ("convex", 0.3), ("convex", 1.0)])
def test_train_hybrid_matches_sequential_reference_with_textless_items(fusion, alpha):
    # long runs over 40 x 50, and every third item has a zero embedding row
    rng = np.random.default_rng(13)
    ds = dense_dataset(rows_with_repeats(rng, 600, 40, 50), 40, 50)
    textful = [i for i in range(50) if i % 3]
    table = embedding_table(6, unit_vectors(rng, textful, 6))
    cfg = TrainConfig(n_factors=5, learning_rate=0.05, reg=0.1, epochs=5,
                      init_scale=0.5, seed=4)
    assert_train_hybrid_matches_sequential_reference(ds, table, cfg, alpha, fusion)


@pytest.mark.parametrize("fusion, alpha, lr, reg", [
    ("additive", 0.5, 0.05, 0.1),
    ("convex", 0.3, 0.05, 0.1),
    ("convex", 1.0, 0.05, 0.1),
    # c = 1 - lr * reg = 0 and c < 0: the powers c^j of repeated items
    ("additive", 0.5, 0.25, 4.0),
    ("convex", 0.3, 0.25, 4.0),
    ("additive", 0.5, 0.1, 15.0),
    ("convex", 0.3, 0.1, 15.0),
])
def test_train_hybrid_matches_sequential_reference_when_items_repeat_within_runs(
    fusion, alpha, lr, reg
):
    # 40 users x 2 items: each run holds each item many times (at convex 1.0, cf_w = 0)
    rng = np.random.default_rng(16)
    ds = dense_dataset(rows_with_repeats(rng, 400, 40, 2), 40, 2)
    table = embedding_table(5, unit_vectors(rng, range(2), 5))
    cfg = TrainConfig(n_factors=4, learning_rate=lr, reg=reg, epochs=5,
                      init_scale=0.5, seed=6)
    t = ds.train
    order = mf.epoch_shuffle(cfg.seed, 0, len(t))
    j, *_ = mf.repeated_items(t.items[order], mf.distinct_user_runs(t.users[order], 40))
    assert j.max() >= 8  # some item's ninth visit within one run
    assert_train_hybrid_matches_sequential_reference(ds, table, cfg, alpha, fusion)


def test_train_hybrid_matches_sequential_reference_when_runs_hit_the_cap():
    # every user and item once per epoch: each epoch is one conflict-free
    # stretch of 300 visits, cut into runs of 64, 64, 64, 64 and 44
    rng = np.random.default_rng(14)
    rows = [(u, int(i), float(rng.integers(1, 6))) for u, i in enumerate(rng.permutation(300))]
    ds = dense_dataset(rows, 300, 300)
    table = embedding_table(4, unit_vectors(rng, range(300), 4))
    cfg = TrainConfig(n_factors=3, learning_rate=0.05, reg=0.1, epochs=3,
                      init_scale=0.5, seed=5)
    assert_train_hybrid_matches_sequential_reference(ds, table, cfg, 0.5, "additive")


def test_train_hybrid_matches_sequential_reference_at_ml100k_scale(tmp_path):
    path = tmp_path / "u.data"
    write_ml100k_like(str(path))
    ds = build_dataset(load_interactions(str(path), "movielens100k"), split_seed=42)
    rng = np.random.default_rng(15)
    words = FILLER_WORDS + CLASS_KEYWORDS
    texts = {
        i: " ".join(rng.choice(words, size=rng.integers(3, 12)))
        for i in range(ds.n_items) if i % 12  # every twelfth item has no text
    }
    table = embed_corpus(ItemTextCorpus(texts=texts), 64)
    cfg = TrainConfig(n_factors=32, learning_rate=0.02, epochs=1, seed=11)
    assert_train_hybrid_matches_sequential_reference(ds, table, cfg, 0.5, "additive")


def test_train_hybrid_requires_some_embedding():
    ds, _ = hybrid_toy_dataset()
    with pytest.raises(ValueError, match="at least one"):
        train_hybrid(ds, ItemTextCorpus(texts={}), TrainConfig(epochs=1), alpha=0.5)


def test_train_hybrid_rejects_bad_alpha_and_fusion():
    ds, table = hybrid_toy_dataset()
    with pytest.raises(ValueError):
        train_hybrid(ds, table, TrainConfig(epochs=1), alpha=-1.0)
    with pytest.raises(ValueError):
        train_hybrid(ds, table, TrainConfig(epochs=1), alpha=0.5, fusion="mystery")


@pytest.mark.parametrize("alpha", [True, False, np.True_, "0.5", None])
def test_train_hybrid_rejects_boolean_alpha(alpha):
    ds, table = hybrid_toy_dataset()
    with pytest.raises(ValueError, match=f"^alpha must be finite and >= 0, got {alpha}$"):
        train_hybrid(ds, table, TrainConfig(epochs=1), alpha=alpha)


@pytest.mark.parametrize("item", [-1, 6])
def test_train_hybrid_rejects_table_rows_outside_the_catalogue(item):
    ds, table = hybrid_toy_dataset()  # 6 items
    outside = embedding_table(table.dim, {0: table.vectors[0], item: table.vectors[1]})
    with pytest.raises(IndexError, match=rf"^item index {item} out of range \[0, 6\)$"):
        train_hybrid(ds, outside, TrainConfig(epochs=1), alpha=0.5)


def test_model_validates_projection_shape():
    with pytest.raises(ValueError, match="projection shape"):
        make_model(
            P=[[1.0, 0.0]], Q=[[1.0, 0.0]],
            W=np.ones((3, 2)), vectors={0: [1.0, 1.0]}, alpha=0.5,
        )


def test_model_names_both_head_shapes_and_the_model_it_misses():
    with pytest.raises(ValueError) as info:
        make_model(
            P=[[1.0, 0.0]], Q=[[1.0, 0.0], [0.0, 1.0]],
            W=np.ones((3, 4)), vectors={0: [1.0, 1.0, 0.0, 0.0]}, alpha=0.5,
        )
    assert str(info.value) == (
        "projection shape (3, 4) and embeddings shape (2, 4) do not match 2 factors and 2 items"
    )


def test_resolve_embeddings_refuses_other_sources():
    with pytest.raises(TypeError) as info:
        resolve_embeddings(42)
    assert str(info.value) == "expected ItemEmbeddingTable or ItemTextCorpus, got <class 'int'>"


def test_train_hybrid_refuses_an_empty_training_split():
    _, table = hybrid_toy_dataset()
    with pytest.raises(ValueError) as info:
        train_hybrid(dense_dataset([], 5, 6), table, TrainConfig(epochs=1), alpha=0.5)
    assert str(info.value) == "training split is empty"


@pytest.mark.parametrize("mode", ["mf", "additive-0.5", "additive-0"])
def test_training_refuses_a_pair_out_of_range_before_the_first_epoch(monkeypatch, mode):
    """-1 and -2 would train the last user's and item's rows: no epoch starts."""
    shuffles = []
    shuffle = mf.epoch_shuffle
    monkeypatch.setattr(mf, "epoch_shuffle", lambda *args: shuffles.append(args) or shuffle(*args))
    ds = dense_dataset([(-1, 0, 1.0), (0, -2, 2.0), (1, 1, 3.0)], 3, 4)
    config = TrainConfig(n_factors=2, epochs=2)
    with pytest.raises(IndexError) as info:
        if mode == "mf":
            train_mf(ds, config)
        else:
            table = embedding_table(3, {0: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 1.0]})
            train_hybrid(ds, table, config, alpha=float(mode.split("-")[1]))
    assert str(info.value) == "user index -1 out of range [0, 3)"
    assert shuffles == []
