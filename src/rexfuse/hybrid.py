"""Fusion of latent-factor and semantic scores, cold-start scoring, joint training."""

import numpy as np

from .dataset import InteractionDataset, ItemTextCorpus
from .mf import (
    FUSION_ADDITIVE,
    FactorModel,
    TrainConfig,
    _check_index,
    _check_one,
    _projected_catalogue,
    fused_factors,
    fusion_weights,
    init_factors,
    loss_regularized,
    predict_mf,
    sgd_epochs,
)
from .semantic import ItemEmbeddingTable, embed_corpus

DEFAULT_EMBED_DIM = 64


class HybridModel(FactorModel):
    """Latent factors plus a learned projection of item embeddings.

    ``projection`` maps embedding space into latent space so the semantic
    contribution for (u, i) is the scalar P_u . (projection @ E_i).  With the
    default additive fusion the full score is the collaborative dot product
    plus ``alpha`` times that scalar; the convex mode blends the two sides as
    (1 - alpha) * cf + alpha * semantic instead.

    The model is the factor model of its fused score, built once by
    ``fused_factors``: its own ``user_factors`` and ``item_factors`` are
    (P, cf_w * Q + sem_w * V) with V = E @ projection.T, so it scores wherever
    a ``FactorModel`` does.  ``factors`` is the trained pair (P, Q) and
    ``semantic`` the factor model (P, V) of the semantic term alone.
    """

    def __init__(self, factors: FactorModel, projection: np.ndarray,
                 embeddings: ItemEmbeddingTable, alpha: float, fusion: str = FUSION_ADDITIVE):
        V = _projected_catalogue(factors, embeddings.dense(factors.n_items), projection)
        fused = fused_factors(factors, V, alpha, fusion)
        super().__init__(fused.user_factors, fused.item_factors)
        self.factors = factors
        self.projection = projection  # (n_factors, embedding dim)
        self.embeddings = embeddings
        self.alpha = alpha
        self.fusion = fusion
        self.semantic = FactorModel(factors.user_factors, V)


def semantic_score(model: HybridModel, u: int, i: int) -> float:
    """User affinity to the projected item embedding; 0 for items without one."""
    return predict_mf(model.semantic, u, i)


predict_hybrid = predict_mf


def predict_cold_start(model: HybridModel, u: int, i: int) -> float:
    """Pure content score P_u . (projection @ E_i); the item factors are ignored.

    Meant for items with no training interactions.  Raises when the item has
    no embedding at all (nothing to score it from).
    """
    _check_one(i, "item")
    _check_index(i, model.n_items, "item")
    if i not in model.embeddings:
        raise ValueError(f"cold item without content: item {i} has no text or embedding")
    return predict_mf(model.semantic, u, i)


def resolve_embeddings(source, dim=None) -> ItemEmbeddingTable:
    """Accept a ready embedding table, or a text corpus to hash ``dim`` wide (None: the default)."""
    if isinstance(source, ItemEmbeddingTable):
        return source
    if isinstance(source, ItemTextCorpus):
        return embed_corpus(source, DEFAULT_EMBED_DIM if dim is None else dim)
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
