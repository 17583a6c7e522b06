"""Item text embeddings: deterministic hashed bag-of-words and precomputed-file providers."""

import re
from dataclasses import dataclass

import numpy as np

from .dataset import IdIndex, ItemTextCorpus, json_float_array, read_item_records
from .mf import _check_index

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
    return embed_corpus(ItemTextCorpus(texts={0: text}), dim).vectors[0]


@dataclass(frozen=True)
class ItemEmbeddingTable:
    """Item embeddings as two columns: ``vectors[j]`` embeds dense item index ``items[j]``.

    Items without text or without a file entry simply have no row; callers
    treat a missing row as the zero vector.
    """

    items: np.ndarray  # (m,) distinct dense item indices
    vectors: np.ndarray  # (m, dim) float64
    skipped: int = 0

    def __post_init__(self):
        distinct = np.unique(self.items)
        if self.vectors.ndim != 2 or not (
            distinct.shape == self.items.shape == self.vectors.shape[:1]
        ):
            raise ValueError(
                f"embedding table needs one vector row per distinct item, got vectors of shape "
                f"{self.vectors.shape} for items of shape {self.items.shape} "
                f"({distinct.size} distinct)"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_index) -> bool:
        return item_index in self.items

    def dense(self, n_items: int) -> np.ndarray:
        """(n_items, dim) matrix with zero rows for items without embeddings."""
        _check_index(self.items, n_items, "item")
        out = np.zeros((n_items, self.dim), dtype=np.float64)
        out[self.items] = self.vectors
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
    return ItemEmbeddingTable(np.fromiter(corpus.texts, np.intp, n), matrix)


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
    rows = np.reshape(list(vectors.values()), (-1, dim))
    return ItemEmbeddingTable(np.fromiter(vectors, np.intp, len(vectors)), rows, skipped)

