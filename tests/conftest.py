import numpy as np
import pytest
from hypothesis import settings

from rexfuse.dataset import IdIndex, Interaction, InteractionDataset, RatingTriples, build_dataset
from rexfuse.semantic import ItemEmbeddingTable

# ``pytest --hypothesis-profile=ci``: the same examples on every run, so a CI
# failure reproduces locally with the same command.
settings.register_profile("ci", derandomize=True)


def random_interactions(rng, n, n_users=8, n_items=10):
    return [
        Interaction(
            user=f"u{rng.integers(0, n_users)}",
            item=f"i{rng.integers(0, n_items)}",
            rating=float(rng.integers(1, 6)),
        )
        for _ in range(n)
    ]


def embedding_table(dim, vectors):
    """The ItemEmbeddingTable of ``{item index: vector}``."""
    rows = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
    return ItemEmbeddingTable(np.fromiter(vectors, np.intp, len(vectors)), rows)


def triple_rows(data):
    """The (u, i, rating) tuples of a ``RatingTriples``, as the loop oracles take them."""
    return list(zip(data.users.tolist(), data.items.tolist(), data.ratings.tolist()))


def dense_dataset(rows, n_users, n_items):
    """Dataset with every row in the training split; for direct model tests."""
    return InteractionDataset(
        users=IdIndex(f"u{u}" for u in range(n_users)),
        items=IdIndex(f"i{i}" for i in range(n_items)),
        train=RatingTriples.from_rows(rows),
        validation=RatingTriples.empty(),
        test=RatingTriples.empty(),
    )


@pytest.fixture
def small_dataset():
    rng = np.random.default_rng(11)
    return build_dataset(random_interactions(rng, 60), split_seed=5)
