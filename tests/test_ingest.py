"""Bulk MovieLens ingest against the per-line loop, and the columns it returns.

The fuzz test writes the same rows as a MovieLens file and as a CSV file,
injects faults, and checks that ``load_interactions`` gives what the per-line
MovieLens loop gives: the same columns, or the same exception type and
message (for CSV, the message of the row one line further down).
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexfuse import dataset
from rexfuse.dataset import (
    Interactions,
    _load_movielens100k,
    _parse_movielens_bulk,
    build_dataset,
    load_interactions,
)

from conftest import random_interactions
from oracles import build_dataset_reference
from synth import write_ml100k_like

IDS = ["196", "u1", "i2", "ä", "x y", "007"]
RATINGS = ["3", "4.5", "1", "5", "2.0"]
STAMPS = ["881250949", "0", "12", "-5"]
FIELD = {"user": 0, "item": 1, "rating": 2, "timestamp": 3}
# Injected values; "1_0", padded, unicode-digit and >int64 numbers parse on both paths,
# and a lone \r ends a line where it stands.
BAD_VALUES = {
    "user": ["", "\r5"],
    "item": ["", "a\rb"],
    "rating": ["nan", "inf", "-inf", "1e400", "abc", "", " ", "1_0", " 3 ", "٣"],
    "timestamp": ["", " ", "1.5", "x", "1_0", " 7 ", "+3", "9" * 25, "\x1c5", "٣"],
}
BLANK_LINES = ["", " ", "\t", "\t\t\t", " \t \t \t ", "\x1c"]

rows_strategy = st.lists(
    st.tuples(*(st.sampled_from(v) for v in (IDS, IDS, RATINGS, STAMPS))).map(list),
    min_size=1,
    max_size=12,
)
fault_strategy = st.tuples(
    st.integers(0, 40),  # the row it applies to, modulo the row count
    st.one_of(  # each kind of fault about equally often
        st.sampled_from([("value", f, v) for f, values in BAD_VALUES.items() for v in values]),
        st.sampled_from([("count", k) for k in (1, 2, 3, 5)]),
        st.sampled_from([("blank", s) for s in BLANK_LINES]),
        st.sampled_from([("eol", "\r\n"), ("eol", "\r")]),
        st.just(("utf8",)),
    ),
)


def render(rows, faults, final_newline, bom, sep):
    """File bytes: the rows joined by ``sep`` (a CSV gets its header) with ``faults`` applied."""
    lines = [[list(r), "\n"] for r in rows]
    blanks, bad_bytes = {}, set()
    for at, fault in sorted(faults, key=lambda f: f[1][0] == "count"):  # counts last
        k = at % len(rows)
        if fault[0] == "value":
            lines[k][0][FIELD[fault[1]]] = fault[2]
        elif fault[0] == "count":
            lines[k][0] = (lines[k][0] + ["9"])[: fault[1]]
        elif fault[0] == "blank":
            blanks.setdefault(k, []).append(fault[1])
        elif fault[0] == "eol":
            lines[k][1] = fault[1]
        else:
            bad_bytes.add(k)
    out = b"\xef\xbb\xbf" if bom else b""
    if sep == ",":
        out += b"user_id,item_id,rating,timestamp\n"
    for k, (fields, eol) in enumerate(lines):
        for blank in blanks.get(k, ()):
            out += blank.replace("\t", sep).encode() + b"\n"
        out += (b"\xff" if k in bad_bytes else b"") + sep.join(fields).encode() + eol.encode()
    if not final_newline and out.endswith(b"\n"):
        out = out[:-1]
    return out


def columns(table):
    """What ``build_dataset`` reads of ``table``: ids and codes, and rating bits."""
    return {
        "user_ids": table.user_ids,
        "item_ids": table.item_ids,
        "codes": [(c.dtype.str, c.tobytes()) for c in (table.user_codes, table.item_codes)],
        "ratings": (table.rating_column.dtype.str, table.rating_column.tobytes()),
    }


def outcome(path, fmt="movielens100k"):
    """The ``columns`` of what ``load_interactions`` returns, or the type and message it raises."""
    try:
        return columns(load_interactions(path, fmt))
    except Exception as exc:  # noqa: BLE001 - every exception is part of the outcome
        return type(exc), str(exc)


def reference_outcome(path):
    """``outcome`` of a MovieLens file with the bulk path switched off: the per-line loop."""
    with mock.patch.object(dataset, "_parse_movielens_bulk", lambda path: None):
        return outcome(path)


def as_csv_outcome(result, tsv, csv):
    """The outcome expected of the CSV rendering, given the MovieLens file's outcome.

    Line numbers move down one for the header, and the field-count message
    does not say "tab-separated".
    """
    if isinstance(result, dict):
        return result
    kind, message = result
    m = re.match(rf"{re.escape(tsv)}:(\d+): (.*)$", message)
    if m is None:
        return kind, message.replace(tsv, csv)
    return kind, f"{csv}:{int(m.group(1)) + 1}: {m.group(2).replace('tab-separated ', '')}"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest-fuzz")


@settings(max_examples=300, deadline=None)
@given(
    rows=rows_strategy,
    faults=st.lists(fault_strategy, min_size=1, max_size=3),
    final_newline=st.booleans(),
    bom=st.booleans(),
)
def test_loaders_agree_with_the_per_line_loop(fuzz_dir, rows, faults, final_newline, bom):
    clean, tsv, plain, csv = (str(fuzz_dir / name) for name in ("clean", "u.data", "plain", "r.csv"))

    # the rows without faults take the bulk path, which returns what the loop returns
    with open(clean, "wb") as fh:
        fh.write(render(rows, [], final_newline, bom, "\t"))
    bulk = _parse_movielens_bulk(clean)
    assert bulk is not None
    assert columns(bulk) == columns(_load_movielens100k(clean))

    # with faults, the bulk path returns the loop's columns or leaves the file to the loop
    with open(tsv, "wb") as fh:
        fh.write(render(rows, faults, final_newline, bom, "\t"))
    expected = reference_outcome(tsv)
    bulk = _parse_movielens_bulk(tsv)
    assert bulk is None or columns(bulk) == expected
    assert outcome(tsv) == expected

    # the CSV loader reads the same rows, or names the same fault (utf-8-sig drops a BOM)
    with open(plain, "wb") as fh:
        fh.write(render(rows, faults, final_newline, False, "\t"))
    with open(csv, "wb") as fh:
        fh.write(render(rows, faults, final_newline, bom, ","))
    assert outcome(csv, "csv") == as_csv_outcome(reference_outcome(plain), plain, csv)


def test_render_reaches_every_kind_of_fault():
    """The renderer itself: each fault kind changes the bytes the way its name says."""
    rows = [["1", "2", "3", "4"], ["5", "6", "1", "7"]]
    assert render(rows, [], True, False, "\t") == b"1\t2\t3\t4\n5\t6\t1\t7\n"
    assert render(rows, [], False, True, ",") == (
        b"\xef\xbb\xbfuser_id,item_id,rating,timestamp\n1,2,3,4\n5,6,1,7"
    )
    faulty = render(rows, [(3, ("count", 5)), (0, ("blank", " \t \t \t ")), (0, ("eol", "\r")),
                           (1, ("utf8",)), (0, ("value", "rating", "nan"))], True, False, "\t")
    assert faulty == b" \t \t \t \n1\t2\tnan\t4\r\xff5\t6\t1\t7\t9\n"


def test_bulk_path_reads_the_ml100k_stand_in(tmp_path):
    path = tmp_path / "u.data"
    write_ml100k_like(path)
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None and len(bulk) == 100_000
    assert columns(bulk) == columns(_load_movielens100k(path))


@pytest.mark.parametrize(
    "fmt, content, message",
    [
        ("movielens100k", b"1\t2\tx\t4\n\xff5\t6\t1\t7\n", ":1: non-numeric rating 'x'"),
        ("csv", b"user_id,item_id,rating\n1,2,x\n\xff5,6,1\n", ":2: non-numeric rating 'x'"),
        ("csv", b"user_id,item_id,rating\n1,2,3\r\xe2\x82,6,1\n", ":3: invalid UTF-8 (byte 0xe2)"),
    ],
    ids=["movielens-bad-row-first", "csv-bad-row-first", "csv-cut-sequence-after-lone-cr"],
)
def test_invalid_utf8_is_reported_in_line_order(tmp_path, fmt, content, message):
    """A bad row before the first invalid byte is the one reported, as for any other fault."""
    path = tmp_path / "ratings"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        load_interactions(path, fmt)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "text",
    [
        "1\t2\t3\t4\n\n5\t6\t1\t7\n",  # blank line
        "1\t2\t3\t4\r5\t6\t1\t7\n",  # a lone \r ends a line
        "1\t2\t3\t4\r\r\n5\t6\t1\t7\n",  # \r\r\n ends a line and a blank one
        "1\t2\t3\t\n",  # blank timestamp
        "1\t2\t3\t\x1c5\n",  # str.strip() drops \x1c, int() does not
    ],
)
def test_files_the_bulk_path_leaves_to_the_loop_still_load(tmp_path, text):
    path = tmp_path / "u.data"
    path.write_text(text, encoding="utf-8", newline="")
    assert _parse_movielens_bulk(path) is None
    assert columns(load_interactions(path, "movielens100k")) == columns(_load_movielens100k(path))


@pytest.mark.parametrize(
    "text",
    ["1\t2\t3\t4\r\n5\t6\t1\t7\r\n", "1\t2\t3\t4\r\n5\t6\t1\t7\n", "1\t2\t3\t4\r\n5\t\u00e4\t1\t7",
     "1\t2\t3\t4\n5\t6\t1\t7\n\n", "1\t2\t3\t4\r\n5\t6\t1\t7\r\n\r\n"],
    ids=["crlf", "crlf-then-lf", "crlf-no-final-newline", "lf-then-empty-line",
         "crlf-then-empty-line"],
)
def test_crlf_files_take_the_bulk_path(tmp_path, text):
    path = tmp_path / "u.data"
    path.write_text(text, encoding="utf-8", newline="")
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None
    assert columns(bulk) == columns(_load_movielens100k(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\t2\t3\t4\n5\t6\t1\t7\t9\n", "2: expected 4 tab-separated fields, got 5"),
        ("1\t2\t3\t4\t9\n5\t6\t1\t7\n", "1: expected 4 tab-separated fields, got 5"),
        ("1\t2\t3\n5\t6\t1\t7\t9\n", "1: expected 4 tab-separated fields, got 3"),
        ("1\t2\t3\t4\n\t6\t1\t7", "2: empty user or item id"),
        ("1\t2\tinf\t4\n", "1: non-finite rating 'inf'"),
        ("1\t2\t3\t4\n5\t6\t1\t 7.5 \n", "2: non-integer timestamp '7.5'"),
        # past int's 4300-digit limit for str conversion
        ("1\t2\t3\t4\n5\t6\t1\t" + "9" * 5000 + "\n", f"2: non-integer timestamp '{'9' * 5000}'"),
    ],
)
def test_bad_rows_raise_the_per_line_message(tmp_path, text, message):
    path = tmp_path / "u.data"
    path.write_text(text, encoding="utf-8")
    assert _parse_movielens_bulk(path) is None
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
        load_interactions(path, "movielens100k")


# ---------------------------------------------------------------- columns

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 80), st.integers(0, 2**16))
def test_build_dataset_matches_per_row_reference(fuzz_dir, data_seed, n, split_seed):
    rows = random_interactions(np.random.default_rng(data_seed), n)
    user_ids, item_ids, splits = build_dataset_reference(rows, split_seed)
    # the rows as columns: first-appearance ids and their codes
    table = Interactions.of(rows)
    assert Interactions.of(table) is table
    assert (table.user_ids, table.item_ids) == (user_ids, item_ids)
    assert table.user_codes.tolist() == [user_ids.index(x.user) for x in rows]
    assert table.item_codes.tolist() == [item_ids.index(x.item) for x in rows]
    path = fuzz_dir / "encoded.data"
    path.write_text("".join(f"{x.user}\t{x.item}\t{x.rating}\t0\n" for x in rows), encoding="utf-8")
    encoded = _parse_movielens_bulk(path)  # the columns as the byte parser encodes them
    assert encoded is not None
    for given_rows in (rows, table, encoded):
        ds = build_dataset(given_rows, split_seed)
        assert (ds.users.ids, ds.items.ids) == (user_ids, item_ids)
        for part, want in zip((ds.train, ds.validation, ds.test), splits):
            for got, expected in zip((part.users, part.items, part.ratings), want):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- adversarial ids and values

def movielens_file(path, rows, prefix=b""):
    """Write ``rows`` of four str fields as a MovieLens file, after the bytes ``prefix``."""
    path.write_bytes(prefix + "".join("\t".join(row) + "\n" for row in rows).encode("utf-8"))
    return path


def interleaved(ids, repeats=3):
    """Rows that name each id as user and as item, ``repeats`` times, in a shifting order."""
    return [[ids[(k + r) % len(ids)], ids[(3 * k + r) % len(ids)], str(1 + k % 5), str(k)]
            for r in range(repeats) for k in range(len(ids))]


def width(n, fill="w"):
    """An ASCII id of ``n`` bytes that ends in ``fill``."""
    return str(n % 10) * (n - 1) + fill if n > 1 else fill


ID_CASES = {
    "widths 1-300": [width(n) for n in (1, 7, 8, 9, 16, 300)] + [width(n, "v") for n in (8, 9, 16)],
    "trailing NUL": ["1", "1\x00", "1\x00\x00", "\x001", "\x00"],
    "16-byte prefix": ["p" * 16, "p" * 16 + "a", "p" * 16 + "b", "p" * 15 + "q" + "a", "p" * 17],
    "leading zeros and spaces": ["1", "01", "1 ", " 1", "001", "10"],
    "multibyte": ["ä", "a", "日本", "日", "😀", "e\u0301", "\u00e9", "\u0100", "\u0101"],
}
VALUE_CASES = {
    "ratings": ["4.5", "0.1", "1e3", "12345678901234567", "123456789012345", "1234567890123456",
                ".5", "5.", "0.000000000000001", "3.14159265358979", "007", "1_0", " 3 ", "٣"],
    "timestamps": ["9" * 18, "9" * 19, "9223372036854775807", "9223372036854775808",
                   "1" + "0" * 24, "-5", "+3", "007", " 7 "],
}


def assert_same_rows(bulk, path):
    """``bulk`` holds the per-line loop's ``columns`` of ``path``: the same ids, codes and bits."""
    assert columns(bulk) == columns(_load_movielens100k(path))


def bulk_and_widths(path):
    """``_parse_movielens_bulk(path)``, and the width of each group its word passes sorted."""
    with mock.patch.object(dataset, "_equal_byte_groups", wraps=dataset._equal_byte_groups) as spy:
        bulk = _parse_movielens_bulk(path)
    return bulk, [call.args[2] for call in spy.call_args_list]


@pytest.mark.parametrize("case", ID_CASES)
def test_bulk_encodes_adversarial_ids_as_the_loop_reads_them(tmp_path, case):
    # enough rows that "widths 1-300" (a 300-byte id, 87 word passes) keeps the word-pass encoder
    path = movielens_file(tmp_path / "u.data", interleaved(ID_CASES[case], repeats=34))
    bulk, widths = bulk_and_widths(path)
    assert bulk is not None
    assert_same_rows(bulk, path)
    assert sorted(bulk.user_ids) == sorted(bulk.item_ids) == sorted(set(ID_CASES[case]))
    assert {len(i.encode()) for i in ID_CASES[case]} <= set(widths)


def test_bulk_reads_a_wide_id_without_word_passes(tmp_path):
    """A 400 KB user id: its word passes would cost about four numpy calls per byte."""
    wide = width(400_000)
    rows = [["1", "2", "3", "4"], [wide, "5", "1", "7"], ["1", "5", "2", "9"]]
    path = movielens_file(tmp_path / "u.data", rows)
    bulk, widths = bulk_and_widths(path)
    assert bulk is not None
    assert_same_rows(bulk, path)
    assert bulk.user_ids == ["1", wide]
    assert widths == [1, 1]  # the item and rating columns; the user column went field by field


def test_bulk_keeps_a_bom_in_the_first_user_id(tmp_path):
    path = movielens_file(tmp_path / "u.data", interleaved(["1", "2"]), prefix=b"\xef\xbb\xbf")
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None
    assert_same_rows(bulk, path)
    assert bulk.user_ids == ["\ufeff1", "2", "1"]


def test_bulk_encodes_more_than_65536_distinct_users(tmp_path):
    users = [str(k) for k in range(70_000)]
    rows = [[users[(k * 7919) % len(users)], str(k % 3), "3", "1"] for k in range(len(users))]
    path = movielens_file(tmp_path / "u.data", rows + rows[:5000])
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None and len(bulk.user_ids) == 70_000
    assert_same_rows(bulk, path)


# ---------------------------------------------------------------- all-digit files

def digit_column(n, widths):
    """``n`` texts of ASCII digits, leading zeros included, of 1 to w digits, w drawn from ``widths``."""
    def texts(w):
        text = st.text("0123456789", min_size=1, max_size=w)
        if w <= 4:  # texts that differ only in leading zeros, often enough to meet in one file
            text = st.one_of(st.sampled_from(["0", "00", "7", "07", "007"]), text)
        return st.lists(text, min_size=n, max_size=n)
    return st.sampled_from(widths).flatmap(texts)


digit_files = st.integers(1, 30).flatmap(lambda n: st.tuples(
    digit_column(n, (4, 18)), digit_column(n, (4, 18)), digit_column(n, (1, 3)), digit_column(n, (25,))
))


@settings(max_examples=200, deadline=None)
@given(digit_files)
def test_all_digit_files_encode_as_the_loop_reads_them(fuzz_dir, file_columns):
    path = movielens_file(fuzz_dir / "digits.data", list(zip(*file_columns)))
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None
    assert_same_rows(bulk, path)


def digit_rows(user=str, item=str, stamp=lambda k: str(881250949 + k)):
    """300 rows of 40 users, 90 items and ratings 1 to 5, their fields spelled by the arguments."""
    return [[user(1 + k % 40), item(1 + 7 * k % 90), str(1 + k % 5), stamp(k)] for k in range(300)]


DIGIT_FILES = {  # rows, and the width of each group the word passes sort
    "dense": (digit_rows(), []),
    "ids padded to 12 digits": (digit_rows(lambda u: f"{u:012d}", lambda i: f"{i:012d}"), [12, 12]),
    "an 18-digit id": ([["9" * 18, "1", "3", "5"]] + digit_rows(), [1, 2, 18]),
    "a +3 timestamp": (digit_rows(stamp=lambda k: "+3" if k == 150 else str(k)), [1, 2, 1, 2, 1]),
}


@pytest.mark.parametrize("case", DIGIT_FILES)
def test_only_dense_all_digit_columns_skip_the_word_passes(tmp_path, case):
    rows, expected = DIGIT_FILES[case]
    path = movielens_file(tmp_path / "u.data", rows)
    bulk, widths = bulk_and_widths(path)
    assert bulk is not None
    assert_same_rows(bulk, path)
    assert widths == expected


@pytest.mark.parametrize("field", VALUE_CASES)
def test_bulk_converts_adversarial_values_as_the_loop_does(tmp_path, field):
    column = 2 if field == "ratings" else 3
    rows = []
    for k, value in enumerate(VALUE_CASES[field]):
        row = [f"u{k}", f"i{k}", "3", "5"]
        row[column] = value
        rows.append(row)
    path = movielens_file(tmp_path / "u.data", rows)
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None
    assert_same_rows(bulk, path)


# Ratings the bulk path must read as ``float`` does; the 17-digit decimal rounds to 5.0
FLOAT_ONLY_RATINGS = ["4_0", " 4", "+4", "-0", "4.", ".5", "1e1", "٣", "3.5", "4.9999999999999999"]


@pytest.mark.parametrize(
    "ratings",
    [[rating, "3", "0", rating] for rating in FLOAT_ONLY_RATINGS]
    + [[f"{1 + k / 4099:.6f}" for k in range(4099)]],
    ids=FLOAT_ONLY_RATINGS + ["all-distinct"],
)
def test_bulk_ratings_are_float_of_each_text(tmp_path, ratings):
    rows = [[f"u{k % 7}", f"i{k % 11}", rating, str(k)] for k, rating in enumerate(ratings)]
    path = movielens_file(tmp_path / "u.data", rows)
    bulk = _parse_movielens_bulk(path)
    assert bulk is not None
    loop = _load_movielens100k(path).rating_column
    assert bulk.rating_column.view(np.int64).tolist() == loop.view(np.int64).tolist()


@pytest.mark.parametrize(
    "rating", ["9" * 400, ".", "1..5", "-", "4.5.", "", "1.2.3.4.5.6.7.8", "abc", "nan"]
)
def test_bulk_leaves_unreadable_ratings_to_the_loop(tmp_path, rating):
    path = movielens_file(tmp_path / "u.data", [["1", "2", "3", "4"], ["1", "3", rating, "4"]])
    assert _parse_movielens_bulk(path) is None
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: non-"):
        load_interactions(path, "movielens100k")


def test_ingest_of_the_ml100k_stand_in_stays_under_16_mb(tmp_path):
    """Traced peak of load plus split, with LF and with CRLF line ends; the
    string-per-field parser needed about 25 MB, and the per-line loop that
    read CRLF files about 32 MB."""
    lf, crlf = tmp_path / "u.data", tmp_path / "crlf.data"
    write_ml100k_like(lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    peaks = {}
    for path in (lf, crlf):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            build_dataset(load_interactions(path), 1)
            peaks[path.name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    assert max(peaks.values()) < 16_000_000, peaks
