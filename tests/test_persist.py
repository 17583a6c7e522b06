import json

import numpy as np
import pytest

from rexfuse.dataset import build_dataset
from rexfuse.hybrid import train_hybrid
from rexfuse.mf import TrainConfig, train_mf
from rexfuse.persist import ModelBundle, load_bundle, save_bundle
from rexfuse.semantic import ItemEmbeddingTable

from conftest import random_interactions


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
    table = ItemEmbeddingTable(
        dim=5,
        vectors={i: np.random.default_rng(i).normal(size=5) for i in range(0, ds.n_items, 2)},
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
    assert set(loaded.model.embeddings.vectors) == set(bundle.model.embeddings.vectors)
    for i, vec in bundle.model.embeddings.vectors.items():
        assert np.array_equal(loaded.model.embeddings.get(i), vec)
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
    ],
    ids=[
        "short-item-counts", "fractional-item-count", "negative-item-count",
        "missing-user-ids", "missing-key", "non-numeric-factor", "string-factor",
        "boolean-factor", "huge-int-factor",
        "nan-reg", "negative-seed", "boolean-split-seed", "nan-projection",
        "narrow-item-factors",
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
