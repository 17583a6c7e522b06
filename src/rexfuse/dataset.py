"""Interaction and item-text ingestion, dense indexing, and deterministic splits."""

import csv
import json
import math
import re
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


@dataclass(eq=False)
class Interactions:
    """Interactions as dictionary-encoded columns: the table ``build_dataset`` reads.

    Each id column is its distinct ids in first-appearance order (``user_ids``,
    ``item_ids``) and an int64 code per row into them (``user_codes``,
    ``item_codes``); ``rating_column`` is float64.  Timestamps are checked on
    load, not kept.
    """

    user_ids: list
    user_codes: np.ndarray
    item_ids: list
    item_codes: np.ndarray
    rating_column: np.ndarray

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
        )

    def __len__(self) -> int:
        return len(self.user_codes)


@dataclass(frozen=True)
class RatingTriples:
    """Parallel arrays of (user index, item index, rating)."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

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
        for k, row in enumerate(rows):
            if not (is_int(row[0]) and is_int(row[1])):
                raise ValueError(f"row {k} {tuple(row)!r}: user and item indices must be integers")
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
    """One parsed input row; the timestamp, blank, missing or an integer, is checked, not kept."""
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
        int(ts or "0")
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-integer timestamp {ts!r}") from None
    return Interaction(user, item, value)


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
    order = np.arange(n)
    for word in words:
        keyed = word[order]
        keyed |= np.arange(n, dtype=np.uint64)  # each row's place in ``order``
        keyed.sort()
        keyed &= np.uint64(0xFFFFFFFF)
        order = order[keyed.view(np.int64)]  # int64 indices: no cast to intp, no copy
    first = np.zeros(n, dtype=bool)
    first[0] = True
    for word in words:
        in_order = word[order]
        first[1:] |= in_order[1:] != in_order[:-1]
    return order, first


def _encode_digits(raw, start, end) -> Optional[tuple]:
    """Dictionary encoding of non-empty all-digit fields by value, or None where keys are too sparse.

    A field's key is the integer of "1" + its text, so ``7`` and ``007`` differ,
    and a table indexed by key holds each key's first row.  The table has at
    most 2n + 65536 entries; a field of w digits has a key of at least 10**w,
    so this also bounds the width, to 17 bytes at most (an int64 key).
    """
    n = len(start)
    length = end - start
    width = int(length.max())
    bound = 2 * n + 65536
    if 10**width > bound:
        return None
    key = np.power(10, length, dtype=np.int64)  # the leading "1"
    for j in range(width):
        digit = raw[end - 1 - j].astype(np.int64)  # index -width at most, read from the end
        digit -= ord("0")
        digit[length <= j] = 0
        key += digit * 10**j
    size = int(key.max()) + 1
    if size > bound:
        return None
    table = np.full(size, n, dtype=np.int64)
    np.minimum.at(table, key, np.arange(n))
    first_rows = np.sort(table[table < n])
    distinct = key[first_rows]
    table[distinct] = np.arange(len(distinct))
    return [str(k)[1:] for k in distinct.tolist()], table[key]


def _encode_ids(data: bytes, raw, start, end, digits: bool) -> tuple:
    """Dictionary encoding of the fields ``data[start:end]``: (distinct texts, int64 codes).

    Reads an id column or the rating column.  The texts are decoded once each,
    in first-appearance order.  Where ``digits`` holds (every field is ASCII
    digits), ``_encode_digits`` encodes the column by value if its keys are
    dense enough.  Otherwise fields of different lengths differ; fields of
    one length are grouped byte for byte, in one word pass per four bytes of
    each distinct length.  A pass costs a few numpy calls whatever its row
    count, so a column whose widest field is wider than its row count, or
    whose lengths need more passes than it has rows, is encoded field by
    field instead.  An empty field raises ValueError.
    """
    length = end - start
    if not length.all():
        raise ValueError("empty field")
    encoded = _encode_digits(raw, start, end) if digits else None
    if encoded is not None:
        return encoded
    n = len(start)
    # checked before bincount, which allocates 8 bytes per byte of the widest field
    widths = np.flatnonzero(np.bincount(length)).tolist() if int(length.max()) <= n else None
    if widths is None or sum((width + 3) // 4 for width in widths) > n:
        texts, codes = _dictionary([data[lo:hi] for lo, hi in zip(start.tolist(), end.tolist())])
        return [text.decode("utf-8") for text in texts], codes
    codes = np.empty(n, dtype=np.int64)
    firsts = []
    n_distinct = 0
    for width in widths:
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


def _ratings(data: bytes, raw, start, end, digits: bool) -> np.ndarray:
    """The float64 ratings ``data[start:end]``: each distinct text converted once by ``float``.

    A text that ``float`` rejects, or reads as non-finite, raises ValueError.
    """
    texts, codes = _encode_ids(data, raw, start, end, digits)
    values = np.array([float(text) for text in texts])
    if not np.isfinite(values).all():
        raise ValueError("non-finite rating")
    return values[codes]


def _check_timestamps(data: bytes, raw, start, end, digits: bool) -> None:
    """Raise ValueError unless ``int`` reads each timestamp ``data[start:end]``.

    Fields of 1 to 18 ASCII digits pass vectorised; any other goes through
    ``int`` on its text.  Where ``digits`` holds, every field is ASCII digits
    already, so only the lengths are checked.
    """
    length = end - start
    plain = (length >= 1) & (length <= 18)
    for j in range(0 if digits else min(int(length.max()), 18)):
        byte = raw[end - 1 - j]  # index -1 - j at most, which numpy reads from the end
        plain &= (byte - np.uint8(ord("0")) < 10) | (length <= j)
    rows = np.flatnonzero(~plain).tolist()
    for lo, hi in zip(start[rows].tolist(), end[rows].tolist()):
        int(data[lo:hi].decode("utf-8"))


def _parse_movielens_bulk(path) -> Optional[Interactions]:
    """The file's rows converted column by column, or None where the per-line loop must run.

    The bulk path takes only files whose every line holds exactly three tabs,
    with no ``\\r`` but in a ``\\r\\n`` line end (read as ``\\n``), valid UTF-8,
    non-empty ids, a finite rating and an integer timestamp; trailing empty
    lines are dropped, and any other blank or whitespace-only line fails the tab
    count or the rating conversion.  The file is read as bytes: field bounds
    come from the tab and newline bytes, and ids are dictionary-encoded byte for
    byte and decoded once per distinct id.  Ratings are encoded the same way,
    and ``float``, the per-line loop's own parser, converts each distinct
    rating text once, so bulk ratings are the loop's by construction.
    Timestamps are checked, not kept: one of 1 to 18 ASCII digits passes as
    it is, any other goes through ``int``, the loop's parser, so the accepted
    syntax is the same.  In a file whose only non-digit bytes are the
    separators (MovieLens releases are), each column is encoded by value
    where its keys allow (``_encode_digits``) and no timestamp byte is read.
    On any other file the caller runs ``_load_movielens100k``, which skips
    blank lines and raises the ``path:line:`` message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # only a file holding one pays for the copy
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    end = len(data)
    while end and data[end - 1] == ord("\n"):  # trailing empty lines, without a copy
        end -= 1
    raw = np.frombuffer(data, dtype=np.uint8, count=end)
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
    # every byte a digit or a separator: each field is a decimal integer
    digits = np.count_nonzero(raw - np.uint8(ord("0")) < 10) + len(separators) == len(raw)
    # the field f of the file spans bounds[f] + 1 .. bounds[f + 1]; row r holds fields 4r..4r+3
    bounds = np.concatenate([np.array([-1], offset), separators, np.array([len(raw)], offset)])
    del separators

    def column(k):
        return data, raw, bounds[k : 4 * n : 4] + 1, bounds[k + 1 :: 4], digits

    try:
        users, items = _encode_ids(*column(0)), _encode_ids(*column(1))
        ratings = _ratings(*column(2))
        _check_timestamps(*column(3))
    except ValueError:  # an empty field, or a value that float or int rejects
        return None
    return Interactions(*users, *items, ratings)


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
    """Load interactions from disk as dictionary-encoded ``Interactions`` columns.

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


def is_int(value) -> bool:
    """Whether ``value`` is an int (numpy's too); a boolean or a float is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(name: str, value, low: int):
    """``value`` if it is an integer >= ``low`` (0 or 1); else a one-line ValueError naming it."""
    if not is_int(value) or value < low:
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


def json_number(value):
    """``json.dumps``'s ``default``: a numpy number the configs accept, as the equal Python one."""
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _check_columns(columns: Interactions):
    """Refuse, as the file loaders do, an id that is not a non-empty string and a non-finite
    rating: a one-line ValueError naming the first row that holds one."""
    for kind, ids, codes in (
        ("user", columns.user_ids, columns.user_codes),
        ("item", columns.item_ids, columns.item_codes),
    ):
        bad = next((k for k, x in enumerate(ids) if not (isinstance(x, str) and x)), None)
        if bad is not None:
            row = int(np.argmax(codes == bad))
            raise ValueError(f"row {row}: {kind} id {ids[bad]!r} is not a non-empty string")
    bad = np.flatnonzero(~np.isfinite(columns.rating_column))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"row {row}: non-finite rating {float(columns.rating_column[row])}")


def build_dataset(interactions, split_seed: int) -> InteractionDataset:
    """Index interactions and split them 70/15/15 with a seeded shuffle.

    ``interactions`` is a sequence of ``Interaction`` rows or ``Interactions``
    columns; a row whose id is not a non-empty string, or whose rating is not
    finite, raises ValueError, as in the file loaders.  Indices are assigned
    in first-appearance order over the input; the split applies a
    deterministic random permutation seeded by ``split_seed`` before cutting.
    Identical inputs and seed give identical datasets.
    """
    require_int("split_seed", split_seed, 0)
    columns = Interactions.of(interactions)
    _check_columns(columns)
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
