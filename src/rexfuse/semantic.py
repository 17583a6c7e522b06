"""Item text embeddings: deterministic hashed bag-of-words and precomputed-file providers."""

import re
from dataclasses import dataclass, field

import numpy as np

from .dataset import IdIndex, ItemTextCorpus, json_float_array, read_item_records

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# maximal runs of alphanumerics (\w minus underscore), Unicode-aware
_TOKEN_RE = re.compile(r"[^\W_]+")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV64_PRIME) & _MASK64
    return h


def embed_hashed_bow(text: str, dim: int) -> np.ndarray:
    """Embed one text as a signed, hashed bag-of-words vector: ``embed_corpus`` of that text.

    Tokens are maximal alphanumeric runs of the lowercased text.  Each token
    hashes with 64-bit FNV-1a to pick a bucket (hash mod dim) and a sign
    (+1 when the top hash bit is 0, else -1).  The accumulated vector is
    L2-normalized; text with no tokens gives the zero vector.  The result is
    bit-exact across runs and platforms.
    """
    return embed_corpus(ItemTextCorpus(texts={0: text}), dim).get(0)


@dataclass(frozen=True)
class ItemEmbeddingTable:
    """Per-item embedding vectors, keyed by dense item index.

    Items without text or without a file entry simply have no row; callers
    treat a missing row as the zero vector.
    """

    dim: int
    vectors: dict = field(default_factory=dict)
    skipped: int = 0

    def __post_init__(self):
        for idx, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(
                    f"embedding for item {idx} has length {vec.shape[0]}, expected {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, item_index) -> bool:
        return item_index in self.vectors

    def get(self, item_index: int):
        """Vector for an item, or None when the item has no embedding."""
        return self.vectors.get(item_index)

    def dense(self, n_items: int) -> np.ndarray:
        """(n_items, dim) matrix with zero rows for items without embeddings."""
        out = np.zeros((n_items, self.dim), dtype=np.float64)
        for idx, vec in self.vectors.items():
            out[idx] = vec
        return out


def embed_corpus(corpus: ItemTextCorpus, dim: int) -> ItemEmbeddingTable:
    """Hashed bag-of-words embeddings for every item that has text.

    This is the one implementation of the rule ``embed_hashed_bow`` states
    for a single text.  Every distinct token is hashed once per call, and
    each bucket's sum of signs is a small integer, exact in any order.
    """
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    codes = {}  # token -> its index into buckets and signs
    buckets, signs, token_codes, ends = [], [], [], []
    for text in corpus.texts.values():
        for token in _TOKEN_RE.findall(text.lower()):
            code = codes.get(token)
            if code is None:
                code = codes[token] = len(buckets)
                h = fnv1a64(token.encode("utf-8"))
                buckets.append(h % dim)
                signs.append(1.0 if h < 1 << 63 else -1.0)
            token_codes.append(code)
        ends.append(len(token_codes))
    n = len(ends)
    token_codes = np.array(token_codes, dtype=np.intp)
    rows = np.repeat(np.arange(n), np.diff(np.array(ends, dtype=np.intp), prepend=0))
    flat = rows * dim + np.array(buckets, dtype=np.intp)[token_codes]
    counts = np.bincount(flat, weights=np.array(signs)[token_codes], minlength=n * dim)
    # float64 even when no text has a token: bincount then returns integers
    matrix = counts.astype(np.float64, copy=False).reshape(n, dim)
    # the squared norm of integer counts is exact in any summation order
    norms = np.sqrt(np.vecdot(matrix, matrix))
    matrix /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return ItemEmbeddingTable(dim=dim, vectors=dict(zip(corpus.texts, matrix)))


def load_embeddings_file(path, items: IdIndex) -> ItemEmbeddingTable:
    """Load precomputed embeddings from a JSON-lines file.

    Each line is ``{"item_id": str, "vector": [numbers]}``.  The first line
    fixes the dimension; later lines with a different length raise ValueError
    naming the line, as do non-numeric and non-finite values.  Unknown
    item_ids are skipped and counted.
    """
    dim = None

    def parse(raw, where):
        nonlocal dim
        if not raw:
            raise ValueError(f"{where}: vector must be a non-empty flat list")
        try:
            vec = json_float_array(raw, (dim,))
        except ValueError as exc:
            raise ValueError(f"{where}: vector {exc}") from None
        dim = vec.size
        return vec

    vectors, skipped = read_item_records(
        path, items, "vector", list, "item_id and vector fields", parse
    )
    if dim is None:
        raise ValueError(f"{path}: no embeddings found")
    return ItemEmbeddingTable(dim=dim, vectors=vectors, skipped=skipped)


def project(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Map an embedding vector into latent space: matrix @ vec.

    ``matrix`` has shape (n_factors, dim); raises on a dimension mismatch.
    """
    if matrix.ndim != 2 or vec.ndim != 1 or matrix.shape[1] != vec.shape[0]:
        raise ValueError(
            f"cannot project vector of length {vec.shape[0] if vec.ndim == 1 else vec.shape} "
            f"with matrix of shape {matrix.shape}"
        )
    return matrix @ vec
