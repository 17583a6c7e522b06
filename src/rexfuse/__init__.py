"""rexfuse: hybrid recommendations from latent factors and item-text embeddings."""

from .dataset import (
    IdIndex,
    Interaction,
    InteractionDataset,
    Interactions,
    ItemTextCorpus,
    RatingTriples,
    build_dataset,
    load_interactions,
    load_item_text,
    split_sizes,
)
from .evaluate import (
    EvalConfig,
    EvalReport,
    coverage,
    evaluate_model,
    precision_recall,
    recommend_for_user,
    render_table,
    rmse,
    sweep_alpha,
    topk,
)
from .hybrid import (
    DEFAULT_EMBED_DIM,
    HybridModel,
    predict_cold_start,
    predict_hybrid,
    semantic_score,
    train_hybrid,
)
from .mf import (
    FUSION_ADDITIVE,
    FUSION_CONVEX,
    FactorModel,
    TrainConfig,
    TrainingDiverged,
    init_factors,
    loss_gradients,
    loss_mse,
    loss_regularized,
    predict_mf,
    train_mf,
)
from .persist import ModelBundle, load_bundle, save_bundle
from .semantic import (
    ItemEmbeddingTable,
    embed_corpus,
    embed_hashed_bow,
    fnv1a64,
    load_embeddings_file,
)

__version__ = "0.1.0"
