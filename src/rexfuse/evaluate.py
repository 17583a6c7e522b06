"""Top-K recommendation and ranking metrics: precision, recall, coverage, RMSE."""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dataset import (
    InteractionDataset,
    RatingTriples,
    finite_number,
    is_int,
    json_number,
    require_int,
)
from .hybrid import HybridModel, resolve_embeddings, train_hybrid
from .mf import FUSION_ADDITIVE, TrainConfig, _check_index, fusion_weights, score_pairs

# users ranked per pass of evaluate_model: a 64 x n_items block of scores
_BLOCK = 64


@dataclass(frozen=True)
class EvalConfig:
    """Ranking-evaluation knobs.

    ``top_k`` is the recommendation list length and ``relevance_threshold``
    the minimum test rating that counts as a hit.
    """

    top_k: int = 10
    relevance_threshold: float = 4.0

    def __post_init__(self):
        require_int("top_k", self.top_k, 1)
        threshold = self.relevance_threshold
        if not finite_number(threshold):
            raise ValueError(f"relevance_threshold must be a finite number, got {threshold!r}")


@dataclass(frozen=True)
class EvalReport:
    """One evaluation run: ranking metrics, rating error, and the swept alpha."""

    precision: float
    recall: float
    coverage: float
    rmse: float
    n_users_evaluated: int
    alpha: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical single-line JSON (stable key order, exact floats)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=json_number)


def _rank_pairs(rows, items, neg, n_rows: int, k: int) -> np.ndarray:
    """The one ranking rule: each row's first k pairs by (-score, index), given the
    negated scores ``neg``, as an (n_rows, k) item array padded with -1.  This is
    the order of a stable sort on each negated row; NaN scores rank last."""
    order = np.lexsort((items, neg, rows))
    rows = rows[order]
    lists = np.full((n_rows, k + 1), -1)  # column k takes every pair past a row's k-th
    lists[rows, np.minimum(np.arange(len(rows)) - np.searchsorted(rows, rows), k)] = items[order]
    return lists[:, :k]


def _ranked(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """The k best item indices of ``candidates`` by the score row ``scores``, ties to the lower.

    One partition finds the k-th best candidate score; every candidate not
    worse than it (ties included, and all of them at a NaN or infinite
    threshold) goes to ``_rank_pairs``.  A pool under k gives a shorter list.
    """
    if not is_int(k) or k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neg = -scores[candidates]
    width = min(k, len(neg))
    if width:
        keep = ~(neg > np.partition(neg, width - 1)[width - 1])
        candidates, neg = candidates[keep], neg[keep]
    return _rank_pairs(np.zeros_like(candidates), candidates, neg, 1, width)[0]


def _top_lists(factors, users: np.ndarray, train_keys: np.ndarray, k: int) -> np.ndarray:
    """Top-k lists of ``users`` under a factor model: a (len(users), k) item array padded with -1.

    User u's candidates are the items i whose key u * n_items + i is not in the
    sorted ``train_keys``.  A BLAS product G = P_b @ Q.T of each block of users
    only filters: over n factors, G and the einsum score s both lie within
    gamma_n sum_j |P_uj Q_ij| <= gamma_n R_u, R_u = n max_j |P_uj| max_ij |Q_ij|,
    of the exact dot product (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 3.1).  So with B_u >= |s - G| and tau_u the k-th best candidate
    G, every candidate that can reach the k-th place has G >= tau_u - 2 B_u.
    ``score_pairs`` re-scores those and ``_rank_pairs`` ranks them, as ``topk``
    does.  A row with a non-finite 2 R_u keeps all its candidates.
    """
    P, Q = factors.user_factors, factors.item_factors
    n_items, width = len(Q), min(k, len(Q))
    n_factors, unit = P.shape[1], np.finfo(float).eps / 2
    gamma = n_factors * unit / (1 - n_factors * unit)
    tiny = 2 * n_factors * np.finfo(float).smallest_subnormal  # products that underflow
    lowest = np.finfo(float).min  # a cut that keeps every candidate
    lists = np.empty((len(users), width), dtype=np.intp)
    with np.errstate(all="ignore"):  # overflow and NaN are caught as non-finite rows
        q_reach = n_factors * np.max(np.abs(Q))  # n * max_ij |Q_ij|
        for start in range(0, len(users), _BLOCK):
            block = users[start:start + _BLOCK]
            G = P[block] @ Q.T
            reach = np.max(np.abs(P[block]), axis=1) * q_reach  # R_u: no squares to overflow
            bound = 2 * (2 * gamma * reach + tiny)  # doubled: covers its own rounding
            # a finite 2 * reach bounds every partial sum of G; NaN or inf factors make it non-finite
            finite = np.isfinite(reach + reach)
            G[~finite] = 0.0
            seen = np.searchsorted(train_keys, block[:, None] * n_items + [0, n_items])
            for r, (lo, hi) in enumerate(seen.tolist()):
                G[r, train_keys[lo:hi] % n_items] = -np.inf
            tau = np.partition(G, n_items - width, axis=1)[:, n_items - width]
            cut = np.where(finite, np.fmax(tau - 2 * bound, lowest), lowest)
            rows, items = np.divmod(np.flatnonzero(G >= cut[:, None]), n_items)
            scores = score_pairs(factors, block[rows], items)
            lists[start:start + len(block)] = _rank_pairs(rows, items, -scores, len(block), width)
    return lists


def topk(model, u: int, k: int, exclude=()) -> list:
    """The k highest-scoring items for user u, skipping ``exclude``.

    Ties break toward the lower item index, so identical scores always give
    identical lists.  Returns fewer than k items only when the candidate
    pool is smaller.  The user's whole catalogue row is scored once and
    ``_ranked`` ranks the items not excluded.  ``exclude`` is an int array or
    any iterable of item indices.
    """
    excluded = np.asarray(exclude if isinstance(exclude, np.ndarray) else list(exclude))
    _check_index(excluded, model.n_items, "item")
    mask = np.ones(model.n_items, dtype=bool)
    mask[excluded.astype(np.intp)] = False  # an empty list reads as a float array
    return _ranked(model.score_items(u, slice(None)), np.flatnonzero(mask), k).tolist()


def precision_recall(recommendations: dict, test: RatingTriples, threshold: float):
    """Micro-averaged precision and recall over users with >= 1 relevant test item.

    precision = total hits / total recommended, recall = total hits / total
    relevant, both summed over evaluable users only.
    """
    relevant = {}
    keep = test.ratings >= threshold
    for u, i in zip(test.users[keep].tolist(), test.items[keep].tolist()):
        relevant.setdefault(u, set()).add(i)
    if not relevant:
        raise ValueError(f"no user has a test item rated >= {threshold}")
    hits = n_recommended = n_relevant = 0
    for u, rel in relevant.items():
        rec = recommendations.get(u, [])
        hits += len(set(rec) & rel)
        n_recommended += len(rec)
        n_relevant += len(rel)
    precision = hits / n_recommended if n_recommended else 0.0
    return precision, hits / n_relevant


def coverage(recommendations: dict, n_items: int) -> float:
    """Fraction of the catalog appearing in at least one recommendation list."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    seen = set()
    for rec in recommendations.values():
        seen.update(rec)
    return len(seen) / n_items


def rmse(model, test: RatingTriples) -> float:
    """Root mean squared prediction error over test interactions."""
    if len(test) == 0:
        raise ValueError("rmse needs a non-empty test set")
    err = model.predict_pairs(test.users, test.items) - test.ratings
    return math.sqrt(float(np.mean(err * err)))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct non-negative ``keys`` in ascending order, by one sort (``np.unique`` hashes)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def evaluate_model(
    model, dataset: InteractionDataset, config: EvalConfig = EvalConfig(), alpha=None
) -> EvalReport:
    """Rank for every user with a relevant test item and score the result.

    Produces top-k lists (minus each user's training items), then
    micro-averaged precision/recall, catalog coverage of those lists, and
    RMSE over all test interactions.  ``_top_lists`` ranks the users in
    blocks of 64 and gives each the list ``topk`` gives it alone; hits are
    counted on (user, item) keys u * n_items + i.
    """
    test, train, n_items = dataset.test, dataset.train, dataset.n_items
    if model.n_items != n_items:
        raise ValueError(f"the model scores {model.n_items} items but the dataset has {n_items}")
    _check_index(train.users, model.n_users, "user")
    _check_index(train.items, n_items, "item")
    relevant = test.ratings >= config.relevance_threshold
    relevant = _distinct(test.users[relevant] * n_items + test.items[relevant])
    if not len(relevant):
        raise ValueError(f"no user has a test item rated >= {config.relevance_threshold}")
    users = _distinct(relevant // n_items)
    _check_index(users, model.n_users, "user")
    train_keys = np.sort(train.users * n_items + train.items)
    lists = _top_lists(model, users, train_keys, config.top_k)
    ranked = lists >= 0
    keys = (users[:, None] * n_items + lists)[ranked]
    hits = np.count_nonzero(np.isin(keys, relevant, assume_unique=True, kind="sort"))
    n_recommended = np.count_nonzero(ranked)
    return EvalReport(
        precision=hits / n_recommended if n_recommended else 0.0,
        recall=hits / len(relevant),
        coverage=np.count_nonzero(np.bincount(lists[ranked], minlength=n_items)) / n_items,
        rmse=rmse(model, test),
        n_users_evaluated=len(users),
        alpha=alpha,
    )


def sweep_alpha(
    dataset: InteractionDataset,
    embeddings_source,
    config: TrainConfig,
    alphas,
    eval_config: EvalConfig = EvalConfig(),
) -> list:
    """Train one hybrid model per fusion weight (same seed) and evaluate each.

    A text corpus is embedded once and the table shared by every alpha.
    Every alpha is checked before anything is embedded or trained.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    for alpha in alphas:
        fusion_weights(alpha, FUSION_ADDITIVE)
    table = resolve_embeddings(embeddings_source)
    reports = []
    for alpha in alphas:
        model, _ = train_hybrid(dataset, table, config, alpha)
        reports.append(evaluate_model(model, dataset, eval_config, alpha=alpha))
    return reports


def recommend_for_user(model, u: int, k: int, item_train_counts, include_cold=False):
    """Ranked (item, score, path) rows for one user.

    Warm items (>= 1 training interaction) score through the model's fused
    prediction; items with no training interactions are hidden unless
    ``include_cold`` is set, in which case a hybrid model scores them through
    the pure content path.  Path labels: "cf" for factor-only models,
    "cf+semantic" for hybrid warm scores, "cold-start" for the content path.
    """
    counts = np.asarray(item_train_counts)
    if counts.shape != (model.n_items,) or (counts < 0).any():
        raise ValueError(f"item_train_counts must hold {model.n_items} non-negative counts")
    warm = counts > 0
    is_hybrid = isinstance(model, HybridModel)
    scores = model.score_items(u, slice(None))
    if is_hybrid and include_cold:
        cold = np.flatnonzero(~warm)
        scores[cold] = model.semantic_scores(u, cold)
    ranked = _ranked(scores, np.flatnonzero(warm | include_cold), k)
    warm_label, cold_label = ("cf+semantic", "cold-start") if is_hybrid else ("cf", "cf")
    return [(int(i), float(scores[i]), warm_label if warm[i] else cold_label) for i in ranked]


def render_table(reports) -> str:
    """Aligned text table, one row per report: precision, recall, coverage, rmse."""
    columns = [  # (header, width, cell text of a report)
        ("precision%", 11, lambda r: f"{100 * r.precision:.2f}"),
        ("recall%", 9, lambda r: f"{100 * r.recall:.2f}"),
        ("coverage%", 10, lambda r: f"{100 * r.coverage:.2f}"),
        ("rmse", 8, lambda r: f"{r.rmse:.4f}"),
        ("users", 6, lambda r: f"{r.n_users_evaluated:d}"),
    ]
    if any(r.alpha is not None for r in reports):
        columns.insert(0, ("alpha", 6, lambda r: "-" if r.alpha is None else f"{r.alpha:.2f}"))
    rows = [[header for header, _, _ in columns]]
    rows += [[cell(r) for _, _, cell in columns] for r in reports]
    return "\n".join(
        "  ".join(f"{text:>{width}}" for text, (_, width, _) in zip(row, columns)) for row in rows
    )
