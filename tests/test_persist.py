import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rexfuse.dataset import IdIndex, build_dataset
from rexfuse.hybrid import HybridModel, train_hybrid
from rexfuse.mf import FactorModel, TrainConfig, train_mf
from rexfuse.persist import ModelBundle, load_bundle, save_bundle
from rexfuse.semantic import ItemEmbeddingTable

from conftest import embedding_table, random_interactions


def mf_bundle(seed=3):
    rng = np.random.default_rng(seed)
    ds = build_dataset(random_interactions(rng, 120, n_users=12, n_items=15), split_seed=9)
    model, _ = train_mf(ds, TrainConfig(n_factors=4, epochs=4, seed=2))
    return ds, ModelBundle(
        mode="mf",
        model=model,
        users=ds.users,
        items=ds.items,
        config=TrainConfig(n_factors=4, epochs=4, seed=2),
        split_seed=9,
        item_train_counts=ds.item_train_counts(),
    )


def hybrid_bundle(seed=4):
    rng = np.random.default_rng(seed)
    ds = build_dataset(random_interactions(rng, 120, n_users=12, n_items=15), split_seed=9)
    table = embedding_table(
        5,
        {i: np.random.default_rng(i).normal(size=5) for i in range(0, ds.n_items, 2)},
    )
    cfg = TrainConfig(n_factors=4, epochs=4, seed=2)
    model, _ = train_hybrid(ds, table, cfg, alpha=0.4)
    return ds, ModelBundle(
        mode="hybrid",
        model=model,
        users=ds.users,
        items=ds.items,
        config=cfg,
        split_seed=9,
        item_train_counts=ds.item_train_counts(),
        embedding_provider={"kind": "file", "path": "emb.jsonl", "dim": 5},
    )


def test_mf_round_trip_predictions_bitwise(tmp_path):
    ds, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)

    rng = np.random.default_rng(0)
    users = rng.integers(0, ds.n_users, 1000)
    items = rng.integers(0, ds.n_items, 1000)
    before = bundle.model.predict_pairs(users, items)
    after = loaded.model.predict_pairs(users, items)
    assert np.array_equal(before, after)
    assert loaded.mode == "mf"
    assert loaded.users == bundle.users
    assert loaded.items == bundle.items
    assert loaded.config == bundle.config
    assert loaded.split_seed == 9
    assert loaded.embedding_provider is None


def test_hybrid_round_trip_preserves_everything(tmp_path):
    ds, bundle = hybrid_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)

    rng = np.random.default_rng(1)
    users = rng.integers(0, ds.n_users, 1000)
    items = rng.integers(0, ds.n_items, 1000)
    assert np.array_equal(
        bundle.model.predict_pairs(users, items), loaded.model.predict_pairs(users, items)
    )
    assert loaded.model.alpha == 0.4
    assert loaded.model.fusion == "additive"
    assert loaded.model.embeddings.dim == 5
    assert loaded.model.embeddings.items.tolist() == sorted(bundle.model.embeddings.items)
    assert np.array_equal(
        loaded.model.embeddings.dense(ds.n_items), bundle.model.embeddings.dense(ds.n_items)
    )
    assert np.array_equal(loaded.item_train_counts, bundle.item_train_counts)
    assert loaded.embedding_provider == {"kind": "file", "path": "emb.jsonl", "dim": 5}


def test_version_mismatch_rejected(tmp_path):
    _, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_bundle(path)


def test_unknown_mode_rejected(tmp_path):
    _, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["mode"] = "ensemble"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="mode"):
        load_bundle(path)


def test_save_rejects_unknown_mode(tmp_path):
    _, bundle = mf_bundle()
    bundle.mode = "oops"
    with pytest.raises(ValueError, match="mode"):
        save_bundle(bundle, tmp_path / "model.json")


@pytest.mark.parametrize(
    "make, mode, kind", [(hybrid_bundle, "mf", "HybridModel"), (mf_bundle, "hybrid", "FactorModel")]
)
def test_save_rejects_a_mode_that_disagrees_with_the_model(tmp_path, make, mode, kind):
    _, bundle = make()
    bundle.mode = mode
    with pytest.raises(ValueError) as info:
        save_bundle(bundle, tmp_path / "model.json")
    assert str(info.value) == f"model mode {mode!r} does not match a {kind}"
    assert not (tmp_path / "model.json").exists()


def test_boolean_alpha_rejected(tmp_path):
    _, bundle = hybrid_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["alpha"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: bad alpha or fusion (alpha must be finite and >= 0, got True)"


def _truncate_counts(doc):
    doc["item_train_counts"] = doc["item_train_counts"][:3]


def _fractional_count(doc):
    doc["item_train_counts"][0] = 1.7


def _negative_count(doc):
    doc["item_train_counts"][0] = -2


def _drop_user_ids(doc):
    doc["users"] = doc["users"][:-5]


def _drop_user_factors(doc):
    del doc["user_factors"]


def _non_numeric_factor(doc):
    doc["item_factors"][0][0] = "x"


def _string_factor(doc):
    doc["user_factors"][0][0] = "0.5"


def _boolean_factor(doc):
    doc["user_factors"][0][1] = True


def _huge_int_factor(doc):
    doc["user_factors"][0][0] = 10**400


def _nan_reg(doc):
    doc["train_config"]["reg"] = float("nan")


def _negative_seed(doc):
    doc["train_config"]["seed"] = -1


def _boolean_split_seed(doc):
    doc["split_seed"] = True


def _nan_projection(doc):
    doc["projection"][0][0] = float("nan")


def _boolean_learning_rate(doc):
    doc["train_config"]["learning_rate"] = True


def _narrow_item_factors(doc):
    doc["item_factors"] = [row[:-1] for row in doc["item_factors"]]


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_truncate_counts, "item_train_counts"),
        (_fractional_count, "item_train_counts"),
        (_negative_count, "item_train_counts"),
        (_drop_user_ids, "users"),
        (_drop_user_factors, "user_factors"),
        (_non_numeric_factor, "item_factors"),
        (_string_factor, "user_factors"),
        (_boolean_factor, "user_factors"),
        (_huge_int_factor, "user_factors"),
        (_nan_reg, "train_config"),
        (_negative_seed, "train_config"),
        (_boolean_split_seed, "split_seed"),
        (_nan_projection, "projection"),
        (_narrow_item_factors, "item_factors"),
        (_boolean_learning_rate, "train_config"),
    ],
    ids=[
        "short-item-counts", "fractional-item-count", "negative-item-count",
        "missing-user-ids", "missing-key", "non-numeric-factor", "string-factor",
        "boolean-factor", "huge-int-factor",
        "nan-reg", "negative-seed", "boolean-split-seed", "nan-projection",
        "narrow-item-factors", "boolean-learning-rate",
    ],
)
def test_malformed_field_rejected_naming_file_and_field(tmp_path, corrupt, field):
    _, bundle = hybrid_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    message = str(info.value)
    assert str(path) in message and repr(field) in message
    assert "\n" not in message
    if corrupt is _negative_seed:
        assert "seed must be a non-negative integer, got -1" in message


# ---------------------------------------------------------------- round-trip fuzz

# bounded so that fusing and projecting cannot overflow; zeros and subnormals included
FINITE = st.floats(-1e3, 1e3)


@st.composite
def bundles(draw):
    """A random MF or hybrid bundle; items have a vector, a zero vector or none."""
    n_users, n_items, k = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    users = draw(st.lists(st.text(max_size=5), min_size=n_users, max_size=n_users, unique=True))
    items = draw(st.lists(st.text(max_size=5), min_size=n_items, max_size=n_items, unique=True))
    factors = FactorModel(
        draw(hnp.arrays(np.float64, (n_users, k), elements=FINITE)),
        draw(hnp.arrays(np.float64, (n_items, k), elements=FINITE)),
    )
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    config = TrainConfig(
        n_factors=k,
        learning_rate=draw(positive),
        reg=draw(st.floats(min_value=0.0, allow_infinity=False)),
        epochs=draw(st.integers(1, 10**6)),
        init_scale=draw(st.floats(min_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64)),
    )
    counts = draw(hnp.arrays(np.int64, n_items, elements=st.integers(0, 2**63 - 1)))
    model, mode, provider = factors, "mf", None
    if draw(st.booleans()):
        dim = draw(st.integers(1, 5))
        kinds = draw(st.lists(st.sampled_from(["vector", "zero", "none"]),
                              min_size=n_items, max_size=n_items))
        vectors = draw(hnp.arrays(np.float64, (n_items, dim), elements=FINITE))
        vectors[[kind == "zero" for kind in kinds]] = 0.0
        present = draw(st.permutations([i for i, kind in enumerate(kinds) if kind != "none"]))
        table = ItemEmbeddingTable(np.array(present, np.intp), vectors[present].reshape(-1, dim))
        W = draw(hnp.arrays(np.float64, (k, dim), elements=FINITE))
        alpha = draw(st.floats(0.0, 10.0))
        model = HybridModel(factors, W, table, alpha, draw(st.sampled_from(["additive", "convex"])))
        mode, provider = "hybrid", {"kind": "text", "path": draw(st.text()), "dim": dim}
    split_seed = draw(st.integers(0, 2**64))
    return ModelBundle(mode, model, IdIndex(users), IdIndex(items), config, split_seed, counts,
                       provider)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


@settings(max_examples=150, deadline=None)
@given(bundle=bundles())
def test_save_load_round_trip_is_bitwise(round_trip_dir, bundle):
    first, second = round_trip_dir / "first.json", round_trip_dir / "second.json"
    save_bundle(bundle, first)
    loaded = load_bundle(first)
    hybrid = bundle.mode == "hybrid"
    factors, back = (bundle.model.factors, loaded.model.factors) if hybrid else (
        bundle.model, loaded.model)
    assert same_bits(back.user_factors, factors.user_factors)
    assert same_bits(back.item_factors, factors.item_factors)
    assert same_bits(loaded.item_train_counts, bundle.item_train_counts)
    assert (loaded.mode, loaded.users, loaded.items) == (bundle.mode, bundle.users, bundle.items)
    assert dataclasses.asdict(loaded.config) == dataclasses.asdict(bundle.config)
    assert loaded.split_seed == bundle.split_seed
    assert loaded.embedding_provider == bundle.embedding_provider
    if hybrid:
        n, table = factors.n_items, loaded.model.embeddings
        assert same_bits(loaded.model.projection, bundle.model.projection)
        assert same_bits(table.dense(n), bundle.model.embeddings.dense(n))
        assert table.items.tolist() == sorted(bundle.model.embeddings.items)
        assert (loaded.model.alpha, loaded.model.fusion) == (bundle.model.alpha, bundle.model.fusion)
    save_bundle(loaded, second)
    assert second.read_bytes() == first.read_bytes()
