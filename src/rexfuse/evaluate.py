"""Top-K recommendation and ranking metrics: precision, recall, coverage, RMSE."""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dataset import InteractionDataset, RatingTriples
from .hybrid import HybridModel, resolve_embeddings, train_hybrid
from .mf import TrainConfig, _check_index


@dataclass(frozen=True)
class EvalConfig:
    """Ranking-evaluation knobs.

    ``top_k`` is the recommendation list length and ``relevance_threshold``
    the minimum test rating that counts as a hit.
    """

    top_k: int = 10
    relevance_threshold: float = 4.0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


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
        return json.dumps(self.to_dict(), sort_keys=True)


def _ranked(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """The k best of the ascending ``candidates``: highest score first, ties to the lower index.

    One stable sort on the negated score keeps tied candidates in their
    ascending order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def topk(model, u: int, k: int, exclude=()) -> list:
    """The k highest-scoring items for user u, skipping ``exclude``.

    Ties break toward the lower item index, so identical scores always give
    identical lists.  Returns fewer than k items only when the candidate
    pool is smaller.  The user's whole catalogue row is scored once and the
    candidates are picked from it by mask.  ``exclude`` is an int array or
    any iterable of item indices.
    """
    excluded = np.asarray(exclude if isinstance(exclude, np.ndarray) else list(exclude), np.int64)
    _check_index(excluded, model.n_items, "item")
    mask = np.ones(model.n_items, dtype=bool)
    mask[excluded] = False
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


def evaluate_model(
    model, dataset: InteractionDataset, config: EvalConfig = EvalConfig(), alpha=None
) -> EvalReport:
    """Rank for every user with a relevant test item and score the result.

    Produces top-k lists (minus each user's training items), then
    micro-averaged precision/recall, catalog coverage of those lists, and
    RMSE over all test interactions.
    """
    test, train, n_items = dataset.test, dataset.train, dataset.n_items
    users = np.unique(test.users[test.ratings >= config.relevance_threshold]).tolist()
    # user u's distinct training items, ascending, are seen[offsets[u]:offsets[u + 1]]
    pairs = np.unique(train.users * n_items + train.items)
    offsets = np.cumsum(np.bincount(pairs // n_items + 1, minlength=dataset.n_users + 1))
    seen = pairs % n_items
    recommendations = {
        u: topk(model, u, config.top_k, exclude=seen[offsets[u]:offsets[u + 1]]) for u in users
    }
    precision, recall = precision_recall(recommendations, test, config.relevance_threshold)
    return EvalReport(
        precision=precision,
        recall=recall,
        coverage=coverage(recommendations, n_items),
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
    fusion: str = "additive",
) -> list:
    """Train one hybrid model per fusion weight (same seed) and evaluate each.

    A text corpus is embedded once and the table shared by every alpha.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    table = resolve_embeddings(embeddings_source)
    reports = []
    for alpha in alphas:
        model, _ = train_hybrid(dataset, table, config, alpha, fusion=fusion)
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
    warm = np.asarray(item_train_counts) > 0
    is_hybrid = isinstance(model, HybridModel)
    scores = model.score_items(u, slice(None))
    if is_hybrid and include_cold:
        scores = np.where(warm, scores, model.semantic_scores(u, slice(None)))
    ranked = _ranked(scores, np.flatnonzero(warm | include_cold), k)
    warm_label, cold_label = ("cf+semantic", "cold-start") if is_hybrid else ("cf", "cf")
    return [(int(i), float(scores[i]), warm_label if warm[i] else cold_label) for i in ranked]


def render_table(reports) -> str:
    """Aligned text table, one row per report: precision, recall, coverage, rmse."""
    with_alpha = any(r.alpha is not None for r in reports)
    header = []
    if with_alpha:
        header.append(f"{'alpha':>6}")
    header += [
        f"{'precision%':>11}",
        f"{'recall%':>9}",
        f"{'coverage%':>10}",
        f"{'rmse':>8}",
        f"{'users':>6}",
    ]
    lines = ["  ".join(header)]
    for r in reports:
        row = []
        if with_alpha:
            row.append(f"{'-' if r.alpha is None else format(r.alpha, '.2f'):>6}")
        row += [
            f"{100 * r.precision:>11.2f}",
            f"{100 * r.recall:>9.2f}",
            f"{100 * r.coverage:>10.2f}",
            f"{r.rmse:>8.4f}",
            f"{r.n_users_evaluated:>6d}",
        ]
        lines.append("  ".join(row))
    return "\n".join(lines)
