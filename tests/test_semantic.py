import json
from pathlib import Path

import numpy as np
import pytest

from rexfuse.dataset import IdIndex, ItemTextCorpus
from rexfuse.hybrid import HybridModel, semantic_score
from rexfuse.mf import FactorModel
from rexfuse.semantic import (
    ItemEmbeddingTable,
    embed_corpus,
    embed_hashed_bow,
    load_embeddings_file,
)

from conftest import embedding_table
from make_hashed_bow_golden import embed as embed_reference
from oracles import dot_naive, matvec_naive

GOLDEN = Path(__file__).parent / "data" / "hashed_bow_golden.json"


# ---------------------------------------------------------------- hashed bow

def test_matches_independent_golden_file():
    for case in json.loads(GOLDEN.read_text()):
        got = embed_hashed_bow(case["text"], case["dim"])
        assert got.tolist() == case["vector"], case["text"]


def test_empty_text_is_zero_vector():
    vec = embed_hashed_bow("", 16)
    assert vec.shape == (16,)
    assert not vec.any()


def test_case_and_punctuation_fold_to_one_bucket():
    vec = embed_hashed_bow("Hello, HELLO!", 16)
    nonzero = np.flatnonzero(vec)
    assert len(nonzero) == 1
    assert abs(vec[nonzero[0]]) == 1.0


def test_token_order_invariance():
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "42"]
    base = embed_hashed_bow(" ".join(words), 32)
    for _ in range(10):
        shuffled = list(rng.permutation(words))
        assert np.array_equal(embed_hashed_bow(" ".join(shuffled), 32), base)


def test_pure_function_and_unit_norm():
    rng = np.random.default_rng(9)
    vocab = [f"w{j}" for j in range(30)]
    for _ in range(50):
        text = " ".join(rng.choice(vocab, size=rng.integers(1, 12)))
        first = embed_hashed_bow(text, 24)
        second = embed_hashed_bow(text, 24)
        assert np.array_equal(first, second)
        norm = np.linalg.norm(first)
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_bad_dim_rejected():
    with pytest.raises(ValueError):
        embed_hashed_bow("x", 0)


def test_embed_corpus_covers_only_items_with_text():
    corpus = ItemTextCorpus(texts={0: "action", 3: ""})
    table = embed_corpus(corpus, 8)
    assert table.items.tolist() == [0, 3]
    assert 1 not in table
    assert not table.vectors[1].any()  # empty text keeps a zero row


@pytest.mark.parametrize("dim", [1, 7, 64])
def test_embed_corpus_equals_per_text_embedding_bitwise(dim):
    rng = np.random.default_rng(21)
    vocab = [f"w{j}" for j in range(40)] + ["Zoë", "naïve", "A1", "x_y", "42"]
    texts = {
        idx: " ".join(rng.choice(vocab, size=rng.integers(0, 30)))
        for idx in range(0, 120, 2)  # gaps: items without text
    }
    texts[3] = "Hello, HELLO! hello..."  # one bucket, several hits
    texts[5] = "--- ,,, !!!"  # no tokens
    table = embed_corpus(ItemTextCorpus(texts=texts), dim)
    assert table.items.tolist() == list(texts)
    for vec, text in zip(table.vectors, texts.values()):
        want = np.array(embed_reference(text, dim), dtype=np.float64).tobytes()
        assert vec.tobytes() == want, text
        assert embed_hashed_bow(text, dim).tobytes() == want, text


def test_embed_corpus_without_any_token_gives_float_zero_rows():
    table = embed_corpus(ItemTextCorpus(texts={0: "", 2: "!!"}), 8)
    assert table.vectors.dtype == np.float64
    assert not table.vectors.any()


def test_embed_corpus_empty_and_bad_dim():
    assert len(embed_corpus(ItemTextCorpus(texts={}), 8)) == 0
    with pytest.raises(ValueError):
        embed_corpus(ItemTextCorpus(texts={0: "x"}), 0)


# ---------------------------------------------------------------- file provider

def write_jsonl(tmp_path, lines):
    path = tmp_path / "emb.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def test_load_embeddings_two_rows(tmp_path):
    path = write_jsonl(tmp_path, [
        json.dumps({"item_id": "a", "vector": [1.0] * 8}),
        json.dumps({"item_id": "b", "vector": [0.5] * 8}),
    ])
    table = load_embeddings_file(path, IdIndex(["a", "b"]))
    assert table.dim == 8
    assert len(table) == 2
    assert table.dense(2)[1].tolist() == [0.5] * 8


def test_load_embeddings_inconsistent_length_names_line(tmp_path):
    path = write_jsonl(tmp_path, [
        json.dumps({"item_id": "a", "vector": [1.0] * 8}),
        json.dumps({"item_id": "b", "vector": [1.0] * 8}),
        json.dumps({"item_id": "c", "vector": [1.0] * 7}),
    ])
    with pytest.raises(ValueError, match=":3"):
        load_embeddings_file(path, IdIndex(["a", "b", "c"]))


def test_load_embeddings_non_finite_rejected(tmp_path):
    path = write_jsonl(tmp_path, ['{"item_id": "a", "vector": [1.0, NaN]}'])
    with pytest.raises(ValueError, match="non-finite"):
        load_embeddings_file(path, IdIndex(["a"]))


@pytest.mark.parametrize(
    "vector", [[1, "x"], [1.0, {"y": 2}], [[1.0], 2.0], ["1.5", 2.0], [1.0, True], [1, 10**400]]
)
def test_load_embeddings_non_number_names_file_and_line(tmp_path, vector):
    path = write_jsonl(tmp_path, [
        json.dumps({"item_id": "a", "vector": [1.0, 2.0]}),
        json.dumps({"item_id": "b", "vector": vector}),
    ])
    with pytest.raises(ValueError) as info:
        load_embeddings_file(path, IdIndex(["a", "b"]))
    assert str(info.value) == f"{path}:2: vector must be a list of numbers"


def test_load_embeddings_unknown_id_skipped(tmp_path):
    path = write_jsonl(tmp_path, [
        json.dumps({"item_id": "nope", "vector": [1.0, 2.0]}),
        json.dumps({"item_id": "a", "vector": [3.0, 4.0]}),
    ])
    table = load_embeddings_file(path, IdIndex(["a"]))
    assert table.skipped == 1
    assert len(table) == 1


def test_load_embeddings_empty_file_errors(tmp_path):
    with pytest.raises(ValueError, match="no embeddings"):
        load_embeddings_file(write_jsonl(tmp_path, []), IdIndex(["a"]))


def test_table_rejects_wrong_length_vector():
    with pytest.raises(ValueError, match="one vector row per distinct item"):
        ItemEmbeddingTable(np.array([0]), np.zeros(2))  # a flat vector, not a (1, 2) row


@pytest.mark.parametrize(
    "items, vectors",
    [([0, 1], np.zeros((3, 2))), ([1, 1], np.zeros((2, 2))), ([[0], [1]], np.zeros((2, 2)))],
    ids=["extra-row", "repeated-item", "nested-items"],
)
def test_table_needs_one_row_per_distinct_item(items, vectors):
    with pytest.raises(ValueError, match="one vector row per distinct item"):
        ItemEmbeddingTable(np.array(items), vectors)


def test_dense_fills_missing_rows_with_zeros():
    table = embedding_table(2, {1: np.array([3.0, 4.0])})
    dense = table.dense(3)
    assert dense.shape == (3, 2)
    assert dense[1].tolist() == [3.0, 4.0]
    assert not dense[0].any() and not dense[2].any()


@pytest.mark.parametrize("item", [-1, 6])
def test_dense_rejects_items_outside_the_catalogue(item):
    table = embedding_table(2, {0: [1.0, 0.0], item: [0.0, 1.0]})
    with pytest.raises(IndexError) as info:
        table.dense(6)
    assert str(info.value) == f"item index {item} out of range [0, 6)"


# ---------------------------------------------------------------- projection

def projected(W, table, n_items):
    """The projected catalogue V = E @ W.T that a hybrid model over ``table`` scores with."""
    factors = FactorModel(np.zeros((1, W.shape[0])), np.zeros((n_items, W.shape[0])))
    return HybridModel(factors, W, table, 1.0).semantic.item_factors


def test_project_identity():
    e = np.array([1.0, -2.0, 3.0, 0.5])
    assert projected(np.eye(4), embedding_table(4, {0: e}), 1)[0].tolist() == e.tolist()


def test_project_zero_vector():
    V = projected(np.ones((3, 5)), embedding_table(5, {0: np.zeros(5)}), 2)  # item 1: no row
    assert V.shape == (2, 3) and not V.any()


def test_project_matches_double_loop_oracle():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 5))
    vectors = {i: rng.normal(size=5) for i in range(4)}
    V = projected(w, embedding_table(5, vectors), 4)
    for i, e in vectors.items():
        assert np.allclose(V[i], matvec_naive(w.tolist(), e.tolist()), rtol=1e-12, atol=0)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError, match="projection shape"):
        projected(np.ones((3, 5)), embedding_table(4, {0: np.ones(4)}), 1)


def test_project_is_linear():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 6))
    x, y = rng.normal(size=6), rng.normal(size=6)
    a, b = 2.5, -1.25
    V = projected(w, embedding_table(6, {0: x, 1: y, 2: a * x + b * y}), 3)
    assert np.allclose(V[2], a * V[0] + b * V[1], rtol=1e-9, atol=1e-12)


def test_semantic_score_consistency_with_oracles():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(3, 5))
    e = rng.normal(size=5)
    p = rng.normal(size=3)
    model = HybridModel(FactorModel(p[None], np.zeros((2, 3))), w, embedding_table(5, {1: e}), 1.0)
    projected = matvec_naive(w.tolist(), e.tolist())
    assert np.allclose(model.semantic.item_factors[1], projected, rtol=1e-12, atol=0)
    assert not model.semantic.item_factors[0].any()  # no embedding: the zero vector
    expected = dot_naive(p.tolist(), projected)
    assert abs(semantic_score(model, 0, 1) - expected) <= 1e-12 * max(1.0, abs(expected))
