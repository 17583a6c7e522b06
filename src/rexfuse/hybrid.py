"""Fusion of latent-factor and semantic scores, cold-start scoring, joint training."""

from dataclasses import dataclass, field

import numpy as np

from .dataset import InteractionDataset, ItemTextCorpus
from .mf import (
    FUSION_ADDITIVE,
    FactorModel,
    TrainConfig,
    _check_index,
    _projected_catalogue,
    fused_factors,
    fusion_weights,
    init_factors,
    loss_regularized,
    sgd_epochs,
)
from .semantic import ItemEmbeddingTable, embed_corpus

DEFAULT_EMBED_DIM = 64


@dataclass
class HybridModel:
    """Latent factors plus a learned projection of item embeddings.

    ``projection`` maps embedding space into latent space so the semantic
    contribution for (u, i) is the scalar P_u . (projection @ E_i).  With the
    default additive fusion the full score is the collaborative dot product
    plus ``alpha`` times that scalar; the convex mode blends the two sides as
    (1 - alpha) * cf + alpha * semantic instead.

    Both scores are factor scores, built once when the model is made: ``fused``
    by ``fused_factors``, ``semantic`` = (P, V) with V = E @ projection.T.
    """

    factors: FactorModel
    projection: np.ndarray  # (n_factors, embedding dim)
    embeddings: ItemEmbeddingTable
    alpha: float
    fusion: str = FUSION_ADDITIVE
    fused: FactorModel = field(init=False, repr=False, compare=False)
    semantic: FactorModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.factors.n_factors, self.embeddings.dim)
        if self.projection.shape != expected:
            raise ValueError(
                f"projection shape {self.projection.shape} does not match {expected}"
            )
        V = _projected_catalogue(self.embeddings.dense(self.n_items), self.projection)
        self.fused = fused_factors(self.factors, V, self.alpha, self.fusion)
        self.semantic = FactorModel(self.factors.user_factors, V)

    @property
    def n_users(self) -> int:
        return self.factors.n_users

    @property
    def n_items(self) -> int:
        return self.factors.n_items

    def semantic_scores(self, u: int, items: np.ndarray) -> np.ndarray:
        """Semantic term P_u.V_i alone: the factor score against the projected catalogue."""
        return self.semantic.score_items(u, items)

    def score_items(self, u: int, items: np.ndarray) -> np.ndarray:
        """Fused scores for one user against item indices, or ``slice(None)`` for the catalogue."""
        return self.fused.score_items(u, items)

    def predict_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self.fused.predict_pairs(users, items)


def semantic_score(model: HybridModel, u: int, i: int) -> float:
    """User affinity to the projected item embedding; 0 for items without one."""
    return float(model.semantic_scores(u, [i])[0])


def predict_hybrid(model: HybridModel, u: int, i: int) -> float:
    """Fused score; at alpha=0 this is exactly the factor prediction."""
    return float(model.score_items(u, [i])[0])


def predict_cold_start(model: HybridModel, u: int, i: int) -> float:
    """Pure content score P_u . (projection @ E_i); the item factors are ignored.

    Meant for items with no training interactions.  Raises when the item has
    no embedding at all (nothing to score it from).
    """
    _check_index(i, model.n_items, "item")
    if i not in model.embeddings:
        raise ValueError(f"cold item without content: item {i} has no text or embedding")
    return float(model.semantic_scores(u, [i])[0])


def resolve_embeddings(source, dim=None) -> ItemEmbeddingTable:
    """Accept either a ready embedding table or a text corpus to hash."""
    if isinstance(source, ItemEmbeddingTable):
        return source
    if isinstance(source, ItemTextCorpus):
        return embed_corpus(source, dim or DEFAULT_EMBED_DIM)
    raise TypeError(f"expected ItemEmbeddingTable or ItemTextCorpus, got {type(source)!r}")


def train_hybrid(
    dataset: InteractionDataset,
    embeddings_source,
    config: TrainConfig,
    alpha: float,
    fusion: str = FUSION_ADDITIVE,
    embed_dim: int = None,
):
    """Jointly train user factors, item factors, and the projection by SGD.

    Predictions during training use the fused score (updates in
    ``sgd_epochs``); embeddings themselves stay frozen.  At alpha=0 the
    parameter path for P and Q is identical to plain factor training (the
    projection only sees its decay term).  Returns the model and the
    per-epoch regularized training loss.
    """
    if len(dataset.train) == 0:
        raise ValueError("training split is empty")
    fusion_weights(alpha, fusion)  # reject a bad alpha or mode before embedding
    table = resolve_embeddings(embeddings_source, embed_dim)
    if len(table) == 0:
        raise ValueError("no item has an embedding; hybrid training needs at least one")

    rng = np.random.default_rng(config.seed)
    factors = init_factors(dataset.n_users, dataset.n_items, config, rng=rng)
    W = rng.uniform(-config.init_scale, config.init_scale, (config.n_factors, table.dim))
    E = table.dense(dataset.n_items)

    def loss():
        return loss_regularized(
            factors, dataset.train, config.reg,
            projection=W, embeddings=E, alpha=alpha, fusion=fusion,
        )

    losses = sgd_epochs(factors, dataset.train, config, loss, head=(W, E, alpha, fusion))
    model = HybridModel(
        factors=factors, projection=W, embeddings=table, alpha=alpha, fusion=fusion
    )
    return model, losses
