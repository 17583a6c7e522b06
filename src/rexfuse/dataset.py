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


def _dictionary(values: list) -> tuple:
    """The distinct values in first-appearance order, and each value's int64 code."""
    codes = {}
    column = np.fromiter((codes.setdefault(v, len(codes)) for v in values), np.int64, len(values))
    return list(codes), column


def _timestamp_column(values: list) -> np.ndarray:
    """Timestamps as int64, or as objects where one is missing or beyond int64."""
    if all(type(t) is int for t in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(values, object, len(values))


@dataclass(eq=False)
class Interactions(Sequence):
    """Interactions as dictionary-encoded columns.

    Each id column is its distinct ids in first-appearance order (``user_ids``,
    ``item_ids``) and an int64 code per row into them (``user_codes``,
    ``item_codes``); ``rating_column`` is float64 and ``timestamp_column`` int64,
    or object when a timestamp was missing or beyond int64.  ``users``,
    ``items``, ``ratings`` and ``timestamps`` are the columns as lists, and
    indexing and iteration yield ``Interaction`` rows, so it reads as the list
    of rows it stands for.  ``build_dataset`` reads the encoded columns as they
    are.
    """

    user_ids: list
    user_codes: np.ndarray
    item_ids: list
    item_codes: np.ndarray
    rating_column: np.ndarray
    timestamp_column: np.ndarray

    @classmethod
    def of(cls, interactions) -> "Interactions":
        """A sequence of ``Interaction`` rows as columns; columns are returned as they are."""
        if isinstance(interactions, cls):
            return interactions
        rows = list(interactions)
        return cls(
            *_dictionary([x.user for x in rows]),
            *_dictionary([x.item for x in rows]),
            np.fromiter((x.rating for x in rows), np.float64, len(rows)),
            _timestamp_column([x.timestamp for x in rows]),
        )

    def append(self, interaction: Interaction) -> None:
        """Add one row.  Each call encodes every column again: build many rows with ``of``."""
        vars(self).update(vars(Interactions.of([*self, interaction])))

    @property
    def users(self) -> list:
        return list(map(self.user_ids.__getitem__, self.user_codes.tolist()))

    @property
    def items(self) -> list:
        return list(map(self.item_ids.__getitem__, self.item_codes.tolist()))

    @property
    def ratings(self) -> list:
        return self.rating_column.tolist()

    @property
    def timestamps(self) -> list:
        return self.timestamp_column.tolist()

    def _columns(self) -> tuple:
        return self.users, self.items, self.ratings, self.timestamps

    def __len__(self) -> int:
        return len(self.user_codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Interactions(
                *_dictionary(self.users[index]),
                *_dictionary(self.items[index]),
                self.rating_column[index],
                self.timestamp_column[index],
            )
        return Interaction(
            self.user_ids[self.user_codes.item(index)],
            self.item_ids[self.item_codes.item(index)],
            self.rating_column.item(index),
            self.timestamp_column.item(index),
        )

    def __iter__(self):
        return map(Interaction, *self._columns())

    def __eq__(self, other) -> bool:
        return isinstance(other, Interactions) and self._columns() == other._columns()


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


def _interaction(path, lineno, user, item, rating, ts="") -> Interaction:
    """One parsed input row; a blank or missing timestamp reads as None."""
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


def _read_records(path, records, n_fields: int, kind: str) -> Interactions:
    """Interactions of ``(line, fields)`` records: the row loop of both formats.

    Records whose every field is blank are skipped; the rest must hold ``n_fields``
    fields.  ``kind`` ("tab-separated " or "") words the field-count message.
    """
    rows = []
    for lineno, fields in records:
        if all(not f.strip() for f in fields):
            continue
        if len(fields) != n_fields:
            raise ValueError(f"{path}:{lineno}: expected {n_fields} {kind}fields, got {len(fields)}")
        rows.append(_interaction(path, lineno, *fields))
    return Interactions.of(rows)


def _load_movielens100k(path) -> Interactions:
    """The per-line MovieLens loop: the reference the bulk parser must agree with."""
    lines = enumerate(_text_lines(path), start=1)
    records = ((n, line.rstrip("\n").rstrip("\r").split("\t")) for n, line in lines)
    return _read_records(path, records, 4, "tab-separated ")


_POW10 = np.array([float(10**k) for k in range(16)])  # exact: each is below 2**53


def _equal_byte_groups(raw, start, width: int) -> tuple:
    """Group the ``width``-byte strings that start at ``start``.

    Returns (row order that puts equal strings together, mask of each group's
    first row in that order).  The strings are sorted four bytes at a time,
    least significant word first, each pass one ``np.sort`` of the word above
    the row's position (so fewer than 2**32 strings), and within a group the
    rows keep their file order.
    """
    n = len(start)
    words = []
    for j in range(0, width, 4):
        word = np.zeros(n, dtype=np.uint64)
        for k in range(j, min(j + 4, width)):
            word |= raw[start + k].astype(np.uint64) << np.uint64(32 + 8 * (k - j))
        words.append(word)
    position = np.arange(n, dtype=np.uint64)
    order = position
    for word in words:
        keyed = word[order] | position
        keyed.sort()
        order = order[keyed & np.uint64(0xFFFFFFFF)]
    first = np.zeros(n, dtype=bool)
    first[0] = True
    for word in words:
        in_order = word[order]
        first[1:] |= in_order[1:] != in_order[:-1]
    return order, first


def _encode_ids(data: bytes, raw, start, end) -> tuple:
    """Dictionary encoding of the fields ``data[start:end]``: (distinct ids, int64 codes).

    The ids are decoded once each, in first-appearance order.  Fields of
    different lengths differ; fields of one length are grouped byte for byte.
    An empty field raises ValueError.
    """
    length = end - start
    if not length.all():
        raise ValueError("empty id")
    codes = np.empty(len(start), dtype=np.int64)
    firsts = []
    n_distinct = 0
    for width in np.flatnonzero(np.bincount(length)).tolist():
        rows = np.flatnonzero(length == width)
        order, first = _equal_byte_groups(raw, start[rows], width)
        codes[rows[order]] = np.cumsum(first) - 1 + n_distinct
        firsts.append(rows[order[first]])
        n_distinct += len(firsts[-1])
    first_rows = np.concatenate(firsts)  # the row where each code first appears
    order = np.argsort(first_rows)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    bounds = zip(start[first_rows[order]].tolist(), end[first_rows[order]].tolist())
    return [data[lo:hi].decode("utf-8") for lo, hi in bounds], rank[codes]


def _plain_decimals(raw, start, end, max_digits: int, point: bool) -> tuple:
    """ASCII-digit fields read vectorised: (their digits as one integer, digits after the point, read).

    A field is read when it holds 1 to ``max_digits`` digits and, if ``point``,
    at most one '.'; ``read`` marks those fields.  The fields are read
    right-aligned, a shorter field reading leading zeros.
    """
    length = end - start
    n = len(end)
    mantissa = np.zeros(n, dtype=np.int64)
    after = np.zeros(n, dtype=np.int64)
    points = np.zeros(n, dtype=np.int64)
    read = np.ones(n, dtype=bool)
    shortest = int(length.min())
    for j in reversed(range(min(int(length.max()), max_digits + point))):
        byte = raw[end - 1 - j]  # index -1 - j at most, which numpy reads from the end
        if j >= shortest:
            byte = np.where(length > j, byte, np.uint8(ord("0")))
        digit = byte - np.uint8(ord("0"))
        if point:
            is_point = byte == ord(".")
            points += is_point
            after += j * is_point
            read &= (digit < 10) | is_point
            mantissa = np.where(is_point, mantissa, mantissa * 10 + digit)
        else:
            read &= digit < 10
            mantissa *= 10
            mantissa += digit
    n_digits = length - points
    read &= (n_digits >= 1) & (n_digits <= max_digits) & (points <= 1)
    after[~read] = 0  # several points may sum past the table of powers
    return mantissa, after, read


def _unread_values(data: bytes, start, end, read, parse) -> tuple:
    """(rows, values) of the fields not ``read``, each converted by ``parse`` on its text."""
    rows = np.flatnonzero(~read).tolist()
    bounds = zip(start[rows].tolist(), end[rows].tolist())
    return rows, [parse(data[lo:hi].decode("utf-8")) for lo, hi in bounds]


def _ratings(data: bytes, raw, start, end) -> np.ndarray:
    """The float64 ratings ``data[start:end]``; ``float`` errors raise."""
    mantissa, after, read = _plain_decimals(raw, start, end, 15, True)
    ratings = mantissa / _POW10[after]
    rows, values = _unread_values(data, start, end, read, float)
    ratings[rows] = values
    return ratings


def _timestamps(data: bytes, raw, start, end) -> np.ndarray:
    """The timestamps ``data[start:end]``, int64 or (beyond int64) object; ``int`` errors raise."""
    timestamps, _, read = _plain_decimals(raw, start, end, 18, False)
    rows, values = _unread_values(data, start, end, read, int)
    try:
        timestamps[rows] = values
    except OverflowError:  # a timestamp beyond int64: the column holds Python ints
        timestamps = timestamps.astype(object)
        timestamps[rows] = values
    return timestamps


def _parse_movielens_bulk(path) -> Optional[Interactions]:
    """The file's rows converted column by column, or None where the per-line loop must run.

    The bulk path takes only files whose every line holds exactly three tabs,
    with no ``\\r``, valid UTF-8, non-empty ids, a finite rating and an integer
    timestamp; a blank or whitespace-only line fails the tab count or the
    rating conversion.  The file is read as bytes: field bounds come from the
    tab and newline bytes, and ids are dictionary-encoded byte for byte and
    decoded once per distinct id.  Ratings of at most 15 ASCII digits and one
    '.' are read as integer / 10^d (both exact below 2**53, so the quotient is
    correctly rounded, as ``float`` rounds), timestamps of at most 18 ASCII
    digits as integers; any other value goes through ``float`` or ``int``, the
    per-line loop's own parsers, so the accepted syntax is the same.  On any other file the caller runs
    ``_load_movielens100k``, which skips blank lines and raises the
    ``path:line:`` message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    raw = np.frombuffer(data, dtype=np.uint8)
    if data.endswith(b"\n"):
        raw = raw[:-1]
    if b"\r" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    is_separator = raw == ord("\t")
    is_separator |= raw == ord("\n")
    offset = np.int32 if len(raw) < 2**31 - 1 else np.int64
    separators = np.flatnonzero(is_separator).astype(offset)
    del is_separator
    newline = raw[separators] == ord("\n")
    n = (len(separators) + 1) // 4
    if len(separators) % 4 != 3 or not newline[3::4].all() or np.count_nonzero(newline) != n - 1:
        return None
    del newline
    # the field f of the file spans bounds[f] + 1 .. bounds[f + 1]; row r holds fields 4r..4r+3
    bounds = np.concatenate([np.array([-1], offset), separators, np.array([len(raw)], offset)])
    del separators

    def column(k):
        return data, raw, bounds[k : 4 * n : 4] + 1, bounds[k + 1 :: 4]

    try:
        users, items = _encode_ids(*column(0)), _encode_ids(*column(1))
        ratings, timestamps = _ratings(*column(2)), _timestamps(*column(3))
    except ValueError:  # an empty id, or a value that float or int rejects
        return None
    if not np.isfinite(ratings).all():
        return None
    return Interactions(*users, *items, ratings, timestamps)


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
    records = _csv_rows(path)
    try:
        _, header = next(records)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if header not in (_CSV_BASE_HEADER, _CSV_BASE_HEADER + ["timestamp"]):
        raise ValueError(
            f"{path}:1: expected header user_id,item_id,rating[,timestamp], got {','.join(header)}"
        )
    return _read_records(path, records, len(header), "")


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


def finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float (numpy's too); a boolean or a string is not."""
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def json_float_array(raw, shape: tuple) -> np.ndarray:
    """Nested JSON lists of numbers as a finite float64 array of ``shape``.

    The array has exactly ``len(shape)`` axes; ``None`` in ``shape`` matches
    any size.  Only JSON ints and floats count as numbers: numpy alone would
    read "1.5" and true as 1.5 and 1.0.  A ValueError states the problem for
    the caller to prefix with the file, line or field it read.
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
    # an empty list has no inner axes to read: they take their size from ``shape``
    arr = arr.reshape(arr.shape + tuple(s or 0 for s in shape[arr.ndim:]))
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

    users = IdIndex(columns.user_ids)
    items = IdIndex(columns.item_ids)
    perm = np.random.default_rng(split_seed).permutation(n)
    u, i, r = columns.user_codes[perm], columns.item_codes[perm], columns.rating_column[perm]

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
