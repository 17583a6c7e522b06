import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rexfuse.dataset import IdIndex, build_dataset, json_float_array
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


def test_numpy_valued_settings_save_as_the_equal_python_numbers(tmp_path):
    """The configs accept numpy numbers; the file holds the bytes of the equal Python values."""
    _, bundle = hybrid_bundle()
    factors, projection, table = bundle.model.factors, bundle.model.projection, bundle.model.embeddings
    python_valued = dataclasses.replace(
        bundle,
        model=HybridModel(factors, projection, table, 0.5),
        config=TrainConfig(n_factors=4, learning_rate=0.25, reg=0.5, epochs=4, init_scale=0.0625,
                           seed=2),
        split_seed=9,
    )
    numpy_valued = dataclasses.replace(
        bundle,
        model=HybridModel(factors, projection, table, np.float32(0.5)),
        config=TrainConfig(n_factors=np.int64(4), learning_rate=np.float32(0.25),
                           reg=np.float16(0.5), epochs=np.int32(4), init_scale=np.float64(0.0625),
                           seed=np.uint8(2)),
        split_seed=np.int64(9),
    )
    paths = tmp_path / "python.json", tmp_path / "numpy.json"
    for saved, path in zip((python_valued, numpy_valued), paths):
        save_bundle(saved, path)
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_version_mismatch_rejected(tmp_path):
    _, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_bundle(path)


def test_a_file_that_is_not_json_is_rejected_naming_the_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json")
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: malformed JSON (Expecting value)"


def test_a_factor_row_that_is_not_a_list_is_rejected_naming_the_field(tmp_path):
    _, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["user_factors"][0] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: field 'user_factors' must be a list of numbers"


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_equal_to_one_but_not_the_integer_rejected(tmp_path, version):
    _, bundle = mf_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: unsupported model file version {version!r} (expected 1)"


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



def test_a_failing_save_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "model.json"
    _, bundle = mf_bundle()
    save_bundle(bundle, path)
    before = path.read_bytes()
    _, bundle = hybrid_bundle()
    bundle.embedding_provider = {"kind": "file", "path": tmp_path / "emb.jsonl"}
    with pytest.raises(TypeError, match="PosixPath|WindowsPath"):
        save_bundle(bundle, path)
    assert path.read_bytes() == before
    assert load_bundle(path).mode == "mf"


def _short_counts(bundle):
    bundle.item_train_counts = np.append(bundle.item_train_counts, 1)
    return "item_train_counts", f"must list {bundle.model.n_items} non-negative integers, one per item"


def _negative_count_at_save(bundle):
    bundle.item_train_counts = bundle.item_train_counts.copy()
    bundle.item_train_counts[0] = -1
    return "item_train_counts", f"must list {bundle.model.n_items} non-negative integers, one per item"


def _fractional_counts(bundle):
    bundle.item_train_counts = bundle.item_train_counts + 0.5
    return "item_train_counts", f"must list {bundle.model.n_items} non-negative integers, one per item"


def _missing_user_id(bundle):
    bundle.users = IdIndex(bundle.users.ids[:-1])
    return "users", f"must list {bundle.model.n_users} distinct string ids, one per factor row"


def _extra_item_id(bundle):
    bundle.items = IdIndex(bundle.items.ids + ["extra"])
    return "items", f"must list {bundle.model.n_items} distinct string ids, one per factor row"


def _integer_item_ids(bundle):
    bundle.items = IdIndex(range(bundle.model.n_items))
    return "items", f"must list {bundle.model.n_items} distinct string ids, one per factor row"


def _factors(bundle):
    return bundle.model.factors if bundle.mode == "hybrid" else bundle.model


def _refit(bundle, P=None, Q=None, projection=None, vectors=None):
    """``bundle`` with the given arrays in place of its model's; None keeps an array."""
    factors = _factors(bundle)
    factors = FactorModel(factors.user_factors if P is None else P,
                          factors.item_factors if Q is None else Q)
    if bundle.mode == "mf":
        bundle.model = factors
        return
    model, table = bundle.model, bundle.model.embeddings
    table = ItemEmbeddingTable(table.items, table.vectors if vectors is None else vectors)
    bundle.model = HybridModel(factors, model.projection if projection is None else projection,
                               table, model.alpha, model.fusion)


def _negative_split_seed(bundle):
    bundle.split_seed = -1
    return "split_seed", "must be an integer >= 0, got -1"


def _true_split_seed(bundle):
    bundle.split_seed = True
    return "split_seed", "must be an integer >= 0, got True"


def _float_split_seed(bundle):
    bundle.split_seed = 9.0
    return "split_seed", "must be an integer >= 0, got 9.0"


def _config_wider_than_factors(bundle):
    bundle.config = dataclasses.replace(bundle.config, n_factors=7)
    return "train_config", "has n_factors 7, but the factors are 4 wide"


def _nan_user_factor(bundle):
    P = _factors(bundle).user_factors.copy()
    P[2, 1] = np.nan
    _refit(bundle, P=P)
    return "user_factors", "contains non-finite values"


def _infinite_item_factor(bundle):
    Q = _factors(bundle).item_factors.copy()
    Q[-1, 3] = np.inf
    _refit(bundle, Q=Q)
    return "item_factors", "contains non-finite values"


def _no_user_rows(bundle):
    _refit(bundle, P=_factors(bundle).user_factors[:0])
    bundle.users = IdIndex([])
    return "user_factors", "must hold at least one row"


def _nan_projection_entry(bundle):
    W = bundle.model.projection.copy()
    W[1, 2] = np.nan
    _refit(bundle, projection=W)
    return "projection", "contains non-finite values"


def _infinite_embedding(bundle):
    vectors = bundle.model.embeddings.vectors.copy()
    vectors[0, 4] = -np.inf
    _refit(bundle, vectors=vectors)
    return "embeddings", "contains non-finite values"


SAVE_CORRUPTIONS = [
    _short_counts, _negative_count_at_save, _fractional_counts,
    _missing_user_id, _extra_item_id, _integer_item_ids,
    _negative_split_seed, _true_split_seed, _float_split_seed, _config_wider_than_factors,
    _nan_user_factor, _infinite_item_factor, _no_user_rows,
]
HYBRID_SAVE_CORRUPTIONS = [_nan_projection_entry, _infinite_embedding]


@pytest.mark.parametrize(
    "corrupt, make",
    [(corrupt, make) for corrupt in SAVE_CORRUPTIONS for make in (mf_bundle, hybrid_bundle)]
    + [(corrupt, hybrid_bundle) for corrupt in HYBRID_SAVE_CORRUPTIONS],
)
def test_save_refuses_what_load_would_refuse(tmp_path, make, corrupt):
    """A bundle whose file ``load_bundle`` would refuse writes no file, and says why as load does."""
    _, bundle = make()
    name, problem = corrupt(bundle)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as info:
        save_bundle(bundle, path)
    assert str(info.value) == f"{path}: field {name!r} {problem}"
    assert not path.exists()

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


def _empty_users(doc):
    doc["users"], doc["user_factors"] = [], []


def _wide_train_config(doc):
    doc["train_config"]["n_factors"] = doc["n_factors"] + 12


def _string_learning_rate(doc):
    doc["train_config"]["learning_rate"] = "0.1"


def _none_reg(doc):
    doc["train_config"]["reg"] = None


# edits that leave every field well-formed but the document inconsistent
CONSISTENCY_EDITS = {"user_factors": _empty_users, "train_config": _wide_train_config}


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
        (_empty_users, "user_factors"),
        (_wide_train_config, "train_config"),
        (_string_learning_rate, "train_config"),
        (_none_reg, "train_config"),
    ],
    ids=[
        "short-item-counts", "fractional-item-count", "negative-item-count",
        "missing-user-ids", "missing-key", "non-numeric-factor", "string-factor",
        "boolean-factor", "huge-int-factor",
        "nan-reg", "negative-seed", "boolean-split-seed", "nan-projection",
        "narrow-item-factors", "boolean-learning-rate", "empty-users", "wide-train-config",
        "string-learning-rate", "none-reg",
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
    if corrupt in (_string_learning_rate, _none_reg):
        assert "must be finite and" in message


def test_string_alpha_rejected_naming_alpha(tmp_path):
    _, bundle = hybrid_bundle()
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    doc["alpha"] = "0.5"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: bad alpha or fusion (alpha must be finite and >= 0, got 0.5)"


def test_empty_float_list_has_every_axis():
    """[] read as (None, k) is a (0, k) array, so a table of no vectors keeps its width."""
    assert json_float_array([], (None, 3)).shape == (0, 3)
    assert json_float_array([], (None,)).shape == (0,)
    with pytest.raises(ValueError, match=r"^has shape \(0, 4\), expected \(3, 4\)$"):
        json_float_array([], (3, 4))


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


def _arrays(bundle):
    """The float arrays of ``bundle``'s model, by their ``_refit`` names."""
    arrays = {"P": _factors(bundle).user_factors, "Q": _factors(bundle).item_factors}
    if bundle.mode == "hybrid":
        arrays.update(projection=bundle.model.projection, vectors=bundle.model.embeddings.vectors)
    return arrays


ARRAY_FIELDS = {"P": "user_factors", "Q": "item_factors", "projection": "projection",
                "vectors": "embeddings"}


@st.composite
def refusals(draw):
    """``(bundle, where, value)``: a bundle and one value that ``load_bundle`` refuses, for
    the split seed, the config width, or an entry ``(array, row, column)`` of P, Q, the
    projection or an embedding vector."""
    bundle = draw(bundles())
    arrays = [name for name, array in _arrays(bundle).items() if array.size]
    where = draw(st.sampled_from(["split_seed", "n_factors", *arrays]))
    if where == "split_seed":
        value = draw(st.one_of(st.integers(max_value=-1), st.booleans(), st.floats(), st.none()))
    elif where == "n_factors":
        value = draw(st.integers(1, 64).filter(lambda width: width != bundle.config.n_factors))
    else:
        rows, columns = _arrays(bundle)[where].shape
        where = where, draw(st.integers(0, rows - 1)), draw(st.integers(0, columns - 1))
        value = draw(st.sampled_from(NON_FINITE))
    return bundle, where, value


@settings(max_examples=150, deadline=None)
@given(case=refusals())
def test_save_refuses_each_value_load_refuses_with_the_same_message(round_trip_dir, case):
    """The value in the bundle raises what the same value in its saved file raises at load."""
    bundle, where, value = case
    path = round_trip_dir / "refused.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    if where == "split_seed":
        doc["split_seed"] = bundle.split_seed = value
    elif where == "n_factors":
        doc["train_config"]["n_factors"] = value
        bundle.config = dataclasses.replace(bundle.config, n_factors=value)
    else:
        name, r, c = where
        row = int(bundle.model.embeddings.items[r]) if name == "vectors" else r
        doc[ARRAY_FIELDS[name]][row][c] = value
        array = _arrays(bundle)[name].copy()
        array[r, c] = value
        with np.errstate(invalid="ignore"):  # a hybrid fuses the entry into its item factors
            _refit(bundle, **{name: array})
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as loaded:
        load_bundle(path)
    path.unlink()
    with pytest.raises(ValueError) as saved:
        save_bundle(bundle, path)
    assert str(saved.value) == str(loaded.value)
    assert not path.exists()


# ---------------------------------------------------------------- load fuzz

# the fields each mode reads; the optional, free-form ``embedding_provider`` is left out
MF_FIELDS = ["version", "mode", "n_factors", "users", "items", "user_factors", "item_factors",
             "item_train_counts", "train_config", "split_seed"]
HYBRID_FIELDS = MF_FIELDS + ["embedding_dim", "embeddings", "projection", "alpha", "fusion"]
# nested lists of floats, where one entry is mutated
FACTOR_FIELDS = {"mf": ["user_factors", "item_factors"],
                 "hybrid": ["user_factors", "item_factors", "projection", "embeddings"]}
# a message names its field as ``field 'name'``, or for these fields also like this
MESSAGE_HEADS = {"version": "unsupported model file version", "mode": "unknown model mode",
                 "alpha": "bad alpha or fusion (", "fusion": "bad alpha or fusion ("}
# fewer factor rows read as ids that do not match the rows, which the message names
ALSO_NAMED = {"user_factors": "users", "item_factors": "items"}
# one JSON value of each kind: a retyped field takes one of another kind
KIND_VALUES = {"null": None, "bool": True, "number": 7, "string": "7", "list": [7],
               "object": {"7": 7}}
JSON_KINDS = {type(None): "null", bool: "bool", int: "number", float: "number", str: "string",
              list: "list", dict: "object"}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def mutations(draw, doc, mode):
    """``(field, doc)`` with one field, or one entry of a factor row, dropped, cut short,
    retyped or made non-finite, or with one of ``CONSISTENCY_EDITS`` applied."""
    doc = json.loads(json.dumps(doc))
    target = draw(st.sampled_from(["field", "entry", "consistency"]))
    if target == "consistency":
        name = draw(st.sampled_from(sorted(CONSISTENCY_EDITS)))
        CONSISTENCY_EDITS[name](doc)
        return name, doc
    if target == "field":
        name = draw(st.sampled_from(MF_FIELDS if mode == "mf" else HYBRID_FIELDS))
        value, kind = doc[name], JSON_KINDS[type(doc[name])]
        ops = ["drop", "retype"]
        ops += ["truncate"] if kind in ("list", "string", "object") and value else []
        ops += ["non-finite"] if kind == "number" else []
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del doc[name]
        elif op == "retype":
            doc[name] = KIND_VALUES[draw(st.sampled_from(sorted(set(KIND_VALUES) - {kind})))]
        elif op == "non-finite":
            doc[name] = draw(st.sampled_from(NON_FINITE))
        elif kind == "object":
            del value[draw(st.sampled_from(sorted(value)))]
        else:
            doc[name] = value[:draw(st.integers(0, len(value) - 1))]
        return name, doc
    name = draw(st.sampled_from(FACTOR_FIELDS[mode]))
    rows = doc[name]
    row = rows[draw(st.sampled_from([r for r, row in enumerate(rows) if row is not None]))]
    c = draw(st.integers(0, len(row) - 1))
    op = draw(st.sampled_from(["drop", "truncate", "retype", "non-finite"]))
    if op == "drop":
        del row[c]
    elif op == "truncate":
        del row[c:]
    elif op == "retype":
        row[c] = KIND_VALUES[draw(st.sampled_from(sorted(set(KIND_VALUES) - {"number"})))]
    else:
        row[c] = draw(st.sampled_from(NON_FINITE))
    return name, doc


@pytest.fixture(scope="module")
def saved_docs(tmp_path_factory):
    """The directory to write into, and the parsed file of an MF and of a hybrid bundle."""
    folder = tmp_path_factory.mktemp("load-fuzz")
    docs = {}
    for mode, make in (("mf", mf_bundle), ("hybrid", hybrid_bundle)):
        save_bundle(make()[1], folder / f"{mode}.json")
        docs[mode] = json.loads((folder / f"{mode}.json").read_text())
    return folder, docs


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["mf", "hybrid"]))
def test_load_rejects_each_mutated_field_in_one_line_naming_it(saved_docs, data, mode):
    folder, docs = saved_docs
    name, doc = data.draw(mutations(docs[mode], mode))
    path = folder / "mutated.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bundle(path)
    message = str(info.value)
    assert "\n" not in message
    field = f"field {name!r} "
    heads = [field, MESSAGE_HEADS.get(name, field), f"field {ALSO_NAMED.get(name, name)!r} "]
    assert any(message.startswith(f"{path}: {head}") for head in heads), message
