"""Model persistence: a single self-describing JSON document per trained model."""

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dataset import IdIndex, json_float_array
from .hybrid import HybridModel
from .mf import FactorModel, TrainConfig
from .semantic import ItemEmbeddingTable

FORMAT_VERSION = 1

MODE_MF = "mf"
MODE_HYBRID = "hybrid"


@dataclass
class ModelBundle:
    """A trained model plus everything needed to evaluate and recommend later.

    ``split_seed`` lets evaluation rebuild the exact train/test partition from
    the original data file; ``item_train_counts`` marks cold items (count 0)
    for recommendation-time routing.
    """

    mode: str
    model: Union[FactorModel, HybridModel]
    users: IdIndex
    items: IdIndex
    config: TrainConfig
    split_seed: int
    item_train_counts: np.ndarray
    embedding_provider: Optional[dict] = None


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write the bundle as version-1 JSON; floats round-trip exactly."""
    if bundle.mode not in (MODE_MF, MODE_HYBRID):
        raise ValueError(f"unknown model mode {bundle.mode!r}")
    hybrid = bundle.mode == MODE_HYBRID
    model = bundle.model
    if isinstance(model, HybridModel) != hybrid:
        raise ValueError(f"model mode {bundle.mode!r} does not match a {type(model).__name__}")
    factors = model.factors if hybrid else model
    embeddings = np.full(factors.n_items, None)  # per item: its vector, or null without one
    if hybrid:
        table = model.embeddings
        embeddings[table.items] = np.fromiter(table.vectors.tolist(), object, len(table))

    doc = {
        "version": FORMAT_VERSION,
        "mode": bundle.mode,
        "n_factors": factors.n_factors,
        "embedding_dim": model.embeddings.dim if hybrid else None,
        "alpha": model.alpha if hybrid else None,
        "fusion": model.fusion if hybrid else None,
        "users": bundle.users.ids,
        "items": bundle.items.ids,
        "user_factors": factors.user_factors.tolist(),
        "item_factors": factors.item_factors.tolist(),
        "projection": model.projection.tolist() if hybrid else None,
        "embeddings": embeddings.tolist() if hybrid else None,
        "item_train_counts": np.asarray(bundle.item_train_counts).tolist(),
        "train_config": dataclasses.asdict(bundle.config),
        "split_seed": bundle.split_seed,
        "embedding_provider": bundle.embedding_provider,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # json.dumps runs the C encoder, json.dump does not


def load_bundle(path) -> ModelBundle:
    """Read a model file, rejecting unknown versions and malformed fields.

    Every failure is a one-line ValueError naming the file and the field.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8 ({exc.reason})") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model file version {version!r} (expected {FORMAT_VERSION})"
        )
    mode = doc.get("mode")
    if mode not in (MODE_MF, MODE_HYBRID):
        raise ValueError(f"{path}: unknown model mode {mode!r}")

    def bad(name, problem):
        return ValueError(f"{path}: field {name!r} {problem}")

    def need(name):
        if name not in doc:
            raise bad(name, "is missing")
        return doc[name]

    def integer(name, low):
        value = need(name)
        if type(value) is not int or value < low:  # JSON true/false are not integers
            raise bad(name, f"must be an integer >= {low}, got {value!r}")
        return value

    def array(name, raw, shape):
        """``raw`` as a finite float array of ``shape``; None in ``shape`` matches any size."""
        try:
            return json_float_array(raw, shape)
        except ValueError as exc:
            raise bad(name, str(exc)) from None

    def ids(name, rows):
        raw = need(name)
        if not (isinstance(raw, list) and all(isinstance(x, str) for x in raw)
                and len(set(raw)) == len(raw) == rows):
            raise bad(name, f"must list {rows} distinct string ids, one per factor row")
        return IdIndex(raw)

    k = integer("n_factors", 1)
    factors = FactorModel(
        user_factors=array("user_factors", need("user_factors"), (None, k)),
        item_factors=array("item_factors", need("item_factors"), (None, k)),
    )
    n_items = factors.n_items
    users, items = ids("users", factors.n_users), ids("items", n_items)
    counts = need("item_train_counts")
    # a negative count would make an item neither warm (> 0) nor cold (== 0)
    if not (isinstance(counts, list) and len(counts) == n_items
            and all(type(c) is int and 0 <= c < 2**63 for c in counts)):
        raise bad("item_train_counts", f"must list {n_items} non-negative integers, one per item")
    counts = np.array(counts, dtype=np.int64)
    model = factors
    if mode == MODE_HYBRID:
        dim = integer("embedding_dim", 1)
        rows = need("embeddings")
        if not isinstance(rows, list) or len(rows) != n_items:
            raise bad("embeddings", f"must list one vector or null per item ({n_items})")
        present = [i for i, v in enumerate(rows) if v is not None]
        vectors = array("embeddings", [rows[i] for i in present], (None, dim))
        projection = array("projection", need("projection"), (k, dim))
        alpha, fusion = need("alpha"), need("fusion")
        try:
            table = ItemEmbeddingTable(np.array(present, np.intp), vectors.reshape(-1, dim))
            model = HybridModel(factors, projection, table, alpha, fusion)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad alpha or fusion ({exc})") from None

    cfg = need("train_config")
    try:
        config = TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})
    except (KeyError, TypeError, ValueError) as exc:
        raise bad("train_config", f"is invalid ({exc!r})") from None
    return ModelBundle(
        mode=mode,
        model=model,
        users=users,
        items=items,
        config=config,
        split_seed=integer("split_seed", 0),
        item_train_counts=counts,
        embedding_provider=doc.get("embedding_provider"),
    )
