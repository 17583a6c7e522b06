from fractions import Fraction

import numpy as np
import pytest

from rexfuse.dataset import (
    IdIndex,
    Interaction,
    build_dataset,
    load_interactions,
    load_item_text,
    split_sizes,
)

from conftest import random_interactions


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def only_row(table):
    """The single row of a one-row ``Interactions`` table."""
    assert len(table) == 1
    (user,), (item,) = table.user_ids, table.item_ids
    return Interaction(user, item, table.rating_column.item())


# ---------------------------------------------------------------- loading

def test_movielens_line_maps_fields(tmp_path):
    path = write(tmp_path / "u.data", "196\t242\t3\t881250949\n")
    inter = only_row(load_interactions(path, "movielens100k"))
    assert inter == Interaction(user="196", item="242", rating=3.0)


def test_movielens_wrong_field_count_names_line(tmp_path):
    path = write(tmp_path / "u.data", "1\t2\t3\t4\n1\t2\t3\n")
    with pytest.raises(ValueError, match=":2"):
        load_interactions(path, "movielens100k")


def test_movielens_skips_blank_lines(tmp_path):
    path = write(tmp_path / "u.data", "1\t2\t3\t4\n\n5\t6\t1\t7\n")
    assert len(load_interactions(path, "movielens100k")) == 2


def test_csv_with_header_no_timestamp(tmp_path):
    path = write(tmp_path / "r.csv", "user_id,item_id,rating\nu1,i1,4.5\n")
    inter = only_row(load_interactions(path, "csv"))
    assert inter == Interaction(user="u1", item="i1", rating=4.5)


def test_csv_with_timestamp_column(tmp_path):
    path = write(tmp_path / "r.csv", "user_id,item_id,rating,timestamp\nu1,i1,2,99\n")
    inter = only_row(load_interactions(path, "csv"))
    assert inter == Interaction(user="u1", item="i1", rating=2.0)


def test_csv_non_numeric_rating_cites_line_2(tmp_path):
    path = write(tmp_path / "r.csv", "user_id,item_id,rating\nu1,i1,abc\n")
    with pytest.raises(ValueError, match=":2"):
        load_interactions(path, "csv")


def test_csv_empty_file_rejected_naming_the_file(tmp_path):
    path = write(tmp_path / "r.csv", "")
    with pytest.raises(ValueError) as info:
        load_interactions(path, "csv")
    assert str(info.value) == f"{path}: empty file"


def test_csv_bad_header_rejected(tmp_path):
    path = write(tmp_path / "r.csv", "user,item,score\nu1,i1,3\n")
    with pytest.raises(ValueError, match="header"):
        load_interactions(path, "csv")


def test_non_finite_rating_rejected(tmp_path):
    path = write(tmp_path / "r.csv", "user_id,item_id,rating\nu1,i1,nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_interactions(path, "csv")


def test_empty_files_error(tmp_path):
    path = write(tmp_path / "u.data", "")
    with pytest.raises(ValueError, match="no interactions"):
        load_interactions(path, "movielens100k")
    path = write(tmp_path / "r.csv", "user_id,item_id,rating\n")
    with pytest.raises(ValueError, match="no interactions"):
        load_interactions(path, "csv")


def test_empty_ids_rejected(tmp_path):
    path = write(tmp_path / "u.data", "\t242\t3\t1\n")
    with pytest.raises(ValueError, match="empty user or item"):
        load_interactions(path, "movielens100k")


def test_unknown_format_rejected(tmp_path):
    path = write(tmp_path / "x", "1\t2\t3\t4\n")
    with pytest.raises(ValueError, match="format"):
        load_interactions(path, "parquet")


# ---------------------------------------------------------------- indexing

def test_index_first_appearance_order():
    idx = IdIndex(["b", "a", "b", "c", "a"])
    assert idx.ids == ["b", "a", "c"]
    assert [idx.index(x) for x in ["b", "a", "c"]] == [0, 1, 2]


def test_index_round_trip():
    idx = IdIndex(str(x) for x in [5, 3, 9, 3, 7])
    for ext in idx.ids:
        assert idx.id(idx.index(ext)) == ext


# ---------------------------------------------------------------- splitting

def test_split_sizes_spec_cases():
    assert split_sizes(100) == (70, 15, 15)
    assert split_sizes(10) == (7, 1, 2)
    assert split_sizes(3) == (2, 0, 1)


def test_split_sizes_floor_rule_everywhere():
    for n in range(3, 400):
        tr, va, te = split_sizes(n)
        assert tr == int(Fraction(70, 100) * n)  # exact floor
        assert tr + va == int(Fraction(85, 100) * n)
        assert tr + va + te == n


def test_build_dataset_requires_three():
    inters = [Interaction("u", "i", 1.0), Interaction("u", "j", 2.0)]
    with pytest.raises(ValueError, match="at least 3"):
        build_dataset(inters, split_seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_build_dataset_rejects_bad_split_seed(seed):
    inters = [Interaction("u", x, 1.0) for x in "ijk"]
    with pytest.raises(ValueError, match=f"^split_seed must be a non-negative integer, got {seed!r}$"):
        build_dataset(inters, split_seed=seed)


def test_build_dataset_partitions_the_input():
    rng = np.random.default_rng(0)
    inters = random_interactions(rng, 57)
    ds = build_dataset(inters, split_seed=123)
    assert (len(ds.train), len(ds.validation), len(ds.test)) == split_sizes(57)

    def rows(split):
        return list(zip(split.users.tolist(), split.items.tolist(), split.ratings.tolist()))

    got = sorted(rows(ds.train) + rows(ds.validation) + rows(ds.test))
    expected = sorted(
        (ds.users.index(x.user), ds.items.index(x.item), x.rating) for x in inters
    )
    assert got == expected


def test_build_dataset_deterministic():
    rng = np.random.default_rng(4)
    inters = random_interactions(rng, 50)
    a = build_dataset(inters, split_seed=99)
    b = build_dataset(inters, split_seed=99)
    for split in ("train", "validation", "test"):
        assert np.array_equal(getattr(a, split).users, getattr(b, split).users)
        assert np.array_equal(getattr(a, split).items, getattr(b, split).items)
        assert np.array_equal(getattr(a, split).ratings, getattr(b, split).ratings)
    assert a.users == b.users and a.items == b.items


def test_build_dataset_seeds_differ():
    rng = np.random.default_rng(4)
    inters = random_interactions(rng, 50)
    a = build_dataset(inters, split_seed=1)
    b = build_dataset(inters, split_seed=2)
    assert not (
        np.array_equal(a.train.users, b.train.users)
        and np.array_equal(a.train.items, b.train.items)
    )


def test_duplicate_interactions_kept():
    inters = [Interaction("u", "i", 3.0)] * 5
    ds = build_dataset(inters, split_seed=0)
    assert len(ds.train) + len(ds.validation) + len(ds.test) == 5


def test_item_train_counts(small_dataset):
    counts = small_dataset.item_train_counts()
    assert counts.sum() == len(small_dataset.train)
    assert counts.shape == (small_dataset.n_items,)


# ---------------------------------------------------------------- item text

def test_item_text_maps_to_dense_index(tmp_path):
    items = IdIndex([str(x) for x in [10, 11, 12, 13, 14, 15, 16, 242]])
    path = write(tmp_path / "t.jsonl", '{"item_id": "242", "text": "A quiet drama."}\n')
    corpus = load_item_text(path, items)
    assert corpus.texts[7] == "A quiet drama."
    assert corpus.skipped == 0


def test_item_text_empty_file_gives_empty_corpus(tmp_path):
    corpus = load_item_text(write(tmp_path / "t.jsonl", ""), IdIndex(["a"]))
    assert len(corpus) == 0
    assert corpus.texts == {}


def test_item_text_unknown_id_skipped_and_counted(tmp_path):
    path = write(tmp_path / "t.jsonl", '{"item_id": "zzz", "text": "x"}\n')
    corpus = load_item_text(path, IdIndex(["a"]))
    assert len(corpus) == 0
    assert corpus.skipped == 1


def test_item_text_malformed_json_names_line(tmp_path):
    path = write(tmp_path / "t.jsonl", '{"item_id": "a", "text": "x"}\n{oops\n')
    with pytest.raises(ValueError, match=":2"):
        load_item_text(path, IdIndex(["a"]))


def test_item_text_wrong_field_types_rejected(tmp_path):
    path = write(tmp_path / "t.jsonl", '{"item_id": 3, "text": "x"}\n')
    with pytest.raises(ValueError, match=":1"):
        load_item_text(path, IdIndex(["a"]))
