"""Seeded input generators owned by the benchmark.

The benchmark never reads the repository's test fixtures, so editing them
cannot change a workload.  Every generator is a pure function of its seed.
"""

import json

import numpy as np

TOPICS = ["action", "comedy", "drama", "scifi", "horror", "romance", "docu", "western"]
TOPIC_WORDS = 120  # words private to one topic
SHARED_WORDS = 1500  # words any item may use


def write_uniform_ratings(path, seed, n_users=943, n_items=1682, n_ratings=100_000):
    """MovieLens-100K-shaped ratings with uniformly drawn (user, item) pairs.

    Ratings are 3.5 + user bias + item bias + a rank-8 term + noise, rounded
    to 1..5.  At equal arguments the file is byte-identical to the stand-in
    the package's acceptance suite generates, so the two stay comparable.
    """
    rng = np.random.default_rng(seed)
    rank = 8
    user_bias = rng.normal(0.0, 0.45, n_users)
    item_bias = rng.normal(0.0, 0.45, n_items)
    user_vecs = rng.normal(0.0, 0.21, (n_users, rank))
    item_vecs = rng.normal(0.0, 0.21, (n_items, rank))
    pairs = rng.choice(n_users * n_items, size=n_ratings, replace=False)
    users, items = pairs // n_items, pairs % n_items
    raw = 3.5 + user_bias[users] + item_bias[items]
    raw += np.einsum("ij,ij->i", user_vecs[users], item_vecs[items])
    raw += rng.normal(0.0, 0.25, n_ratings)
    ratings = np.clip(np.rint(raw), 1, 5).astype(np.int64)
    stamps = rng.integers(874_000_000, 893_000_000, n_ratings)
    _write_ml(path, users, items, ratings, stamps)


def _write_ml(path, users, items, ratings, stamps):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{u + 1}\t{i + 1}\t{r}\t{t}\n"
            for u, i, r, t in zip(users.tolist(), items.tolist(), ratings.tolist(), stamps.tolist())
        )


def _unique_pairs(rng, n_users, n_items, pop, n_ratings):
    """Distinct (user, item) pairs: one per item and one per user, then popularity draws.

    Items with zero popularity keep their single first rating.
    """
    seed_items = np.arange(n_items)
    seed_users = rng.integers(0, n_users, n_items)
    extra_users = np.arange(n_users)
    extra_items = rng.choice(n_items, size=n_users, p=pop)
    keys = np.concatenate([seed_users * n_items + seed_items, extra_users * n_items + extra_items])
    while True:
        _, first = np.unique(keys, return_index=True)
        unique = keys[np.sort(first)]
        if unique.size >= n_ratings:
            break
        more = n_ratings - unique.size + 1024
        u = rng.integers(0, n_users, more)
        i = rng.choice(n_items, size=more, p=pop)
        keys = np.concatenate([unique, u * n_items + i])
    unique = unique[:n_ratings]
    unique = unique[rng.permutation(unique.size)]
    return unique // n_items, unique % n_items


def write_longtail(
    ratings_path,
    text_path,
    seed,
    n_users,
    n_items,
    n_ratings,
    exponent,
    single_share,
    textless_share,
):
    """Long-tail ratings plus item texts of 40-80 tokens.

    Item exposure follows a Zipf law with the given exponent over a seeded
    popularity order, so tail items end up with one or two ratings and some
    of them land outside the training split (cold items).  Every user and
    every item appears at least once, so the catalog has exactly
    ``n_users`` x ``n_items`` ids.  Ratings add a topic match between user
    and item (the signal item text carries) to biases and a rank-8 term.
    A ``textless_share`` of items, drawn from the seed, gets no text record.
    """
    rng = np.random.default_rng(seed)
    user_bias = rng.normal(0.0, 0.4, n_users)
    item_bias = rng.normal(0.0, 0.2, n_items)
    user_vecs = rng.normal(0.0, 0.25, (n_users, 8))
    item_vecs = rng.normal(0.0, 0.25, (n_items, 8))
    user_topic = rng.integers(0, len(TOPICS), n_users)
    item_topic = rng.integers(0, len(TOPICS), n_items)
    pop = (1.0 + rng.permutation(n_items)) ** -exponent
    pop[rng.random(n_items) < single_share] = 0.0
    pop /= pop.sum()
    # As in real catalogs, widely seen items tend to be rated higher.  This
    # also keeps precision@10 nearly the same from seed to seed.
    log_pop = np.log(np.maximum(pop, pop[pop > 0].min()))
    item_bias += 0.4 * (log_pop - log_pop.mean()) / log_pop.std()

    users, items = _unique_pairs(rng, n_users, n_items, pop, n_ratings)
    raw = 3.2 + user_bias[users] + item_bias[items]
    raw += np.einsum("ij,ij->i", user_vecs[users], item_vecs[items])
    raw += np.where(user_topic[users] == item_topic[items], 1.0, 0.0)
    raw += rng.normal(0.0, 0.3, users.size)
    ratings = np.clip(np.rint(raw), 1, 5).astype(np.int64)
    stamps = rng.integers(956_000_000, 1_046_000_000, users.size)
    _write_ml(ratings_path, users, items, ratings, stamps)

    text_rng = np.random.default_rng([seed, 1])
    textless = text_rng.random(n_items) < textless_share
    with open(text_path, "w", encoding="utf-8") as fh:
        for i in text_rng.permutation(n_items).tolist():
            if textless[i]:
                continue
            fh.write(json.dumps({"item_id": str(i + 1), "text": _item_text(text_rng, item_topic[i])}))
            fh.write("\n")


def _item_text(rng, topic):
    n_tokens = int(rng.integers(40, 81))
    n_topic = n_tokens // 3
    words = [f"{TOPICS[topic]}{w}" for w in rng.integers(0, TOPIC_WORDS, n_topic).tolist()]
    words += [f"w{w}" for w in rng.integers(0, SHARED_WORDS, n_tokens - n_topic).tolist()]
    words[0] = TOPICS[topic]
    return " ".join(words)
