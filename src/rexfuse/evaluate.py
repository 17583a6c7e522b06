"""Top-K recommendation and ranking metrics: precision, recall, coverage, RMSE."""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dataset import InteractionDataset, RatingTriples, finite_number, json_number, require_int
from .hybrid import HybridModel, resolve_embeddings, train_hybrid
from .mf import TrainConfig, _check_index

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


def _ranked_rows(scores: np.ndarray, candidates: np.ndarray, k: int) -> list:
    """The k best candidates of each row: highest score first, ties to the lower index.

    ``scores`` and the boolean mask ``candidates`` are (rows, n_items); the
    result is one index array per row.  One partition finds each row's k-th
    best candidate score, every candidate not worse than it is kept (ties at
    the k-th place included), and one lexsort orders the kept entries by
    (row, -score, index): the order of a stable sort on the negated row.  A NaN
    or infinite threshold keeps the whole row, so NaN scores rank last.  A row
    with fewer than k candidates gives a shorter list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neg = -scores
    neg[~candidates] = np.inf
    kth = min(k, neg.shape[1]) - 1
    threshold = np.partition(neg, kth, axis=1)[:, kth, None]
    rows, items = np.nonzero(candidates & ~(neg > threshold))
    order = np.lexsort((items, neg[rows, items], rows))
    rows, items = rows[order], items[order]
    kept = np.bincount(rows, minlength=len(neg))
    first = np.cumsum(kept) - kept
    items = items[np.arange(len(rows)) - first[rows] < k]
    return np.split(items, np.cumsum(np.minimum(kept, k))[:-1])


def topk(model, u: int, k: int, exclude=()) -> list:
    """The k highest-scoring items for user u, skipping ``exclude``.

    Ties break toward the lower item index, so identical scores always give
    identical lists.  Returns fewer than k items only when the candidate
    pool is smaller.  The user's whole catalogue row is scored once and the
    candidates are picked from it by mask.  ``exclude`` is an int array or
    any iterable of item indices.
    """
    excluded = np.asarray(exclude if isinstance(exclude, np.ndarray) else list(exclude))
    _check_index(excluded, model.n_items, "item")
    mask = np.ones(model.n_items, dtype=bool)
    mask[excluded.astype(np.intp)] = False  # an empty list reads as a float array
    return _ranked_rows(model.score_items(u, slice(None))[None], mask[None], k)[0].tolist()


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
    RMSE over all test interactions.  Users are ranked in blocks of 64: one
    ``score_items`` call scores a block's catalogue rows, with the same bits
    as ``topk``'s one-user rows, and one ``_ranked_rows`` call ranks them.
    """
    test, train, n_items = dataset.test, dataset.train, dataset.n_items
    users = np.unique(test.users[test.ratings >= config.relevance_threshold])
    # user u's training items, ascending, are seen[offsets[u]:offsets[u + 1]]
    pairs = np.sort(train.users * n_items + train.items)
    offsets = np.cumsum(np.bincount(pairs // n_items + 1, minlength=dataset.n_users + 1))
    seen = pairs % n_items
    _check_index(seen, model.n_items, "item")
    recommendations = {}
    for start in range(0, len(users), _BLOCK):
        block = users[start:start + _BLOCK]
        candidates = np.ones((len(block), model.n_items), dtype=bool)
        for r, u in enumerate(block.tolist()):
            candidates[r, seen[offsets[u]:offsets[u + 1]]] = False
        scores = model.score_items(block[:, None], slice(None))
        ranked = _ranked_rows(scores, candidates, config.top_k)
        recommendations.update(zip(block.tolist(), (r.tolist() for r in ranked)))
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
    warm = np.asarray(item_train_counts) > 0
    is_hybrid = isinstance(model, HybridModel)
    scores = model.score_items(u, slice(None))
    if is_hybrid and include_cold:
        scores = np.where(warm, scores, model.semantic_scores(u, slice(None)))
    (ranked,) = _ranked_rows(scores[None], (warm | include_cold)[None], k)
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
