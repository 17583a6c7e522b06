"""Interaction and item-text ingestion, dense indexing, and deterministic splits."""

import csv
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

TRAIN_PCT = 70
VALIDATION_PCT = 15

# how the "surrogateescape" error handler decodes each byte of invalid UTF-8
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class Interaction:
    """A single user-item rating event with external (string) ids."""

    user: str
    item: str
    rating: float
    timestamp: Optional[int] = None


class IdIndex:
    """Bidirectional map between external string ids and dense indices 0..n-1.

    Dense indices are assigned in first-appearance order, so the same input
    file always yields the same index.
    """

    def __init__(self, ids=()):
        self._backward = list(dict.fromkeys(ids))
        self._forward = dict(zip(self._backward, range(len(self._backward))))

    def index(self, external_id: str) -> int:
        return self._forward[external_id]

    def indices(self, external_ids: list) -> np.ndarray:
        """Dense indices of a list of known external ids, as an int64 array."""
        return np.fromiter(map(self._forward.__getitem__, external_ids), np.int64, len(external_ids))

    def id(self, dense_index: int) -> str:
        return self._backward[dense_index]

    def __contains__(self, external_id) -> bool:
        return external_id in self._forward

    def __len__(self) -> int:
        return len(self._backward)

    def __eq__(self, other) -> bool:
        return isinstance(other, IdIndex) and self._backward == other._backward

    @property
    def ids(self) -> list:
        """External ids in dense order."""
        return list(self._backward)


@dataclass
class Interactions(Sequence):
    """Interactions as four parallel lists: user ids, item ids, ratings, timestamps.

    Indexing and iteration yield ``Interaction`` objects, so it reads as the
    list of rows it stands for; ``build_dataset`` reads the columns directly.
    """

    users: list = field(default_factory=list)
    items: list = field(default_factory=list)
    ratings: list = field(default_factory=list)
    timestamps: list = field(default_factory=list)

    @classmethod
    def of(cls, interactions) -> "Interactions":
        """A sequence of ``Interaction`` rows as columns; columns are returned as they are."""
        if isinstance(interactions, cls):
            return interactions
        return cls(
            [x.user for x in interactions],
            [x.item for x in interactions],
            [x.rating for x in interactions],
            [x.timestamp for x in interactions],
        )

    def append(self, interaction: Interaction) -> None:
        self.users.append(interaction.user)
        self.items.append(interaction.item)
        self.ratings.append(interaction.rating)
        self.timestamps.append(interaction.timestamp)

    def _columns(self) -> tuple:
        return self.users, self.items, self.ratings, self.timestamps

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Interactions(*(column[index] for column in self._columns()))
        return Interaction(*(column[index] for column in self._columns()))

    def __iter__(self):
        return map(Interaction, *self._columns())


@dataclass(frozen=True)
class RatingTriples:
    """Parallel arrays of (user index, item index, rating)."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def rows(self):
        """Iterate (u, i, rating) tuples."""
        return zip(self.users.tolist(), self.items.tolist(), self.ratings.tolist())

    @classmethod
    def empty(cls) -> "RatingTriples":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_rows(cls, rows) -> "RatingTriples":
        rows = list(rows)
        users = np.array([r[0] for r in rows], dtype=np.int64)
        items = np.array([r[1] for r in rows], dtype=np.int64)
        ratings = np.array([r[2] for r in rows], dtype=np.float64)
        return cls(users, items, ratings)


@dataclass(frozen=True)
class InteractionDataset:
    """Indexed interactions partitioned into train/validation/test."""

    users: IdIndex
    items: IdIndex
    train: RatingTriples
    validation: RatingTriples
    test: RatingTriples

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def item_train_counts(self) -> np.ndarray:
        """Number of training interactions per item; 0 marks a cold item."""
        return np.bincount(self.train.items, minlength=self.n_items)


@dataclass(frozen=True)
class ItemTextCorpus:
    """Raw item texts keyed by dense item index."""

    texts: dict = field(default_factory=dict)
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.texts)


def _interaction(path, lineno, user, item, rating, ts) -> Interaction:
    """One parsed input row; a blank timestamp reads as None."""
    if not user or not item:
        raise ValueError(f"{path}:{lineno}: empty user or item id")
    try:
        value = float(rating)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric rating {rating!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite rating {rating!r}")
    ts = ts.strip()
    try:
        return Interaction(user, item, value, int(ts) if ts else None)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-integer timestamp {ts!r}") from None


def _text_lines(path, encoding="utf-8", newline=None):
    """The lines of a UTF-8 text file; a line with invalid UTF-8 raises a ``path:line:`` error."""
    with open(path, encoding=encoding, errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = None if line.isascii() else _ESCAPED_BYTE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise ValueError(f"{path}:{lineno}: invalid UTF-8 (byte 0x{byte:02x})")
            yield line


def _load_movielens100k(path) -> Interactions:
    """The per-line MovieLens loop: the reference the bulk parser must agree with."""
    interactions = Interactions()
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        interactions.append(_interaction(path, lineno, *fields))
    return interactions


def _three_tabs_per_line(data: bytes) -> bool:
    """Whether every ``\\n``-separated line of ``data`` holds exactly three tab bytes."""
    raw = np.frombuffer(data, dtype=np.uint8)
    line_ends = np.append(np.flatnonzero(raw == ord("\n")), len(raw))
    tabs_before = np.searchsorted(np.flatnonzero(raw == ord("\t")), line_ends)
    return bool(np.all(np.diff(tabs_before, prepend=0) == 3))


def _parse_movielens_bulk(path) -> Optional[Interactions]:
    """The file's rows converted column by column, or None where the per-line loop must run.

    The bulk path takes only files whose every line holds exactly three tabs,
    with no ``\\r``, valid UTF-8, non-empty ids, a finite rating and an integer
    timestamp; a blank or whitespace-only line fails the tab count or the
    rating conversion.  Ratings and timestamps go through ``float`` and
    ``int``, the per-line loop's own parsers, so the accepted syntax is the
    same.  On any other file the caller runs ``_load_movielens100k``, which
    skips blank lines and raises the ``path:line:`` message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.endswith(b"\n"):
        data = data[:-1]
    if b"\r" in data or not _three_tabs_per_line(data):
        return None
    try:
        fields = data.decode("utf-8").replace("\n", "\t").split("\t")
    except UnicodeDecodeError:
        return None
    users, items, ratings, timestamps = (fields[k::4] for k in range(4))
    del fields, data  # so each column of number strings is freed once converted
    try:
        ratings = list(map(float, ratings))
        timestamps = list(map(int, timestamps))
    except ValueError:
        return None
    if not (all(users) and all(items) and all(map(math.isfinite, ratings))):
        return None
    return Interactions(users, items, ratings, timestamps)


_CSV_BASE_HEADER = ["user_id", "item_id", "rating"]


def _csv_rows(path):
    """(line, row) for each record of a CSV file, the line being the record's last.

    A record whose quoted field spans lines is numbered by the line it ends on.
    A line the csv module rejects raises a ``path:line:`` error.
    """
    reader = csv.reader(_text_lines(path, "utf-8-sig", newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field over the module's size limit
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _load_csv(path) -> Interactions:
    interactions = Interactions()
    reader = _csv_rows(path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    has_timestamp = header == _CSV_BASE_HEADER + ["timestamp"]
    if not has_timestamp and header != _CSV_BASE_HEADER:
        raise ValueError(
            f"{path}:1: expected header user_id,item_id,rating[,timestamp], got {','.join(header)}"
        )
    for lineno, row in reader:
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        ts = row[3] if has_timestamp else ""
        interactions.append(_interaction(path, lineno, row[0], row[1], row[2], ts))
    return interactions


def load_interactions(path, format: str = "movielens100k") -> Interactions:
    """Load interactions from disk as columns that index and iterate as ``Interaction`` rows.

    Formats:
      movielens100k -- tab-separated ``user<TAB>item<TAB>rating<TAB>timestamp``
      csv           -- comma-separated with header ``user_id,item_id,rating[,timestamp]``

    Raises ValueError naming the offending line on malformed input, and on
    files that contain no interactions at all.
    """
    if format == "movielens100k":
        interactions = _parse_movielens_bulk(path)
        if interactions is None:
            interactions = _load_movielens100k(path)
    elif format == "csv":
        interactions = _load_csv(path)
    else:
        raise ValueError(f"unknown interaction format {format!r}")
    if not interactions:
        raise ValueError(f"{path}: no interactions found")
    return interactions


def require_int(name: str, value, low: int):
    """``value`` if it is an integer >= ``low`` (0 or 1); else a one-line ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def json_float_array(raw, shape: tuple) -> np.ndarray:
    """Nested JSON lists of numbers as a finite float64 array of ``shape``.

    ``None`` in ``shape`` matches any size.  Only JSON ints and floats count
    as numbers: numpy alone would read "1.5" and true as 1.5 and 1.0.  A
    ValueError states the problem for the caller to prefix with the file,
    line or field it read.
    """
    if type(raw) is not list:
        raise ValueError("must be a list of numbers")
    flat = raw
    for _ in shape[1:]:
        if not all(type(x) is list for x in flat):
            raise ValueError("must be a list of numbers")
        flat = list(chain.from_iterable(flat))
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError("must be a list of numbers")
    try:
        arr = np.array(raw, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("must be a list of numbers") from None
    except ValueError:  # rows of unequal length
        raise ValueError(f"must have shape {shape}") from None
    if not all(s in (None, n) for n, s in zip(arr.shape, shape)):
        raise ValueError(f"has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError("contains non-finite values")
    return arr


def split_sizes(n: int) -> tuple:
    """Train/validation/test sizes: floor(0.70 n), floor(0.85 n) - floor(0.70 n), rest.

    Integer arithmetic so the cut points are exact for every n.
    """
    n_train = (TRAIN_PCT * n) // 100
    n_train_val = ((TRAIN_PCT + VALIDATION_PCT) * n) // 100
    return n_train, n_train_val - n_train, n - n_train_val


def build_dataset(interactions, split_seed: int) -> InteractionDataset:
    """Index interactions and split them 70/15/15 with a seeded shuffle.

    ``interactions`` is a sequence of ``Interaction`` rows or ``Interactions``
    columns.  Indices are assigned in first-appearance order over the input;
    the split applies a deterministic random permutation seeded by
    ``split_seed`` before cutting.  Identical inputs and seed give identical
    datasets.
    """
    require_int("split_seed", split_seed, 0)
    columns = Interactions.of(interactions)
    n = len(columns)
    if n < 3:
        raise ValueError(f"need at least 3 interactions to split, got {n}")

    users = IdIndex(columns.users)
    items = IdIndex(columns.items)
    u = users.indices(columns.users)
    i = items.indices(columns.items)
    r = np.array(columns.ratings, dtype=np.float64)

    perm = np.random.default_rng(split_seed).permutation(n)
    u, i, r = u[perm], i[perm], r[perm]

    n_train, n_val, _ = split_sizes(n)
    cut1, cut2 = n_train, n_train + n_val

    def section(lo, hi):
        return RatingTriples(u[lo:hi].copy(), i[lo:hi].copy(), r[lo:hi].copy())

    return InteractionDataset(
        users=users,
        items=items,
        train=section(0, cut1),
        validation=section(cut1, cut2),
        test=section(cut2, n),
    )


def read_item_records(path, items: IdIndex, field: str, kind: type, expected: str, parse=None):
    """Read JSON-lines ``{"item_id": str, <field>: <kind>}`` records, skipping blank lines.

    Returns ({item index: value}, count of records with an item_id not in
    ``items``).  ``parse(value, "path:lineno")`` converts every record's value,
    unknown ids included; malformed lines raise ValueError naming the line.
    """
    values = {}
    skipped = 0
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: malformed JSON ({exc.msg})") from None
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("item_id"), str)
            or not isinstance(record.get(field), kind)
        ):
            raise ValueError(f"{where}: expected object with {expected}")
        value = record[field] if parse is None else parse(record[field], where)
        if record["item_id"] not in items:
            skipped += 1
            continue
        values[items.index(record["item_id"])] = value
    return values, skipped


def load_item_text(path, items: IdIndex) -> ItemTextCorpus:
    """Load a JSON-lines file of ``{"item_id": ..., "text": ...}`` records.

    Records whose item_id is not in ``items`` are skipped and counted in the
    returned corpus's ``skipped`` field.  Malformed lines raise ValueError
    naming the line number.
    """
    texts, skipped = read_item_records(
        path, items, "text", str, "string fields item_id and text"
    )
    return ItemTextCorpus(texts=texts, skipped=skipped)
