"""The verdict logic of ``tools/parity.py``: what counts as a break of the determinism contract."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py"
)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def outputs(seed):
    """One set of driver outputs for every mode, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    result = {}
    for mode in parity.MODES:
        result[mode] = {
            "P": rng.normal(size=(4, 3)),
            "losses": rng.uniform(1, 2, 3),
            "test_scores": rng.normal(size=20),
            "report": '{"precision": 0.25}',
            "topk": [[0, 2, 1], [3, 1, 0]],
            "model_file": b'{"version": 1}\n',
        }
    return result


def broken(base, head):
    return {(mode, name) for mode, name, _, ok in parity.verdicts(base, head) if not ok}


def test_identical_outputs_pass_as_bitwise_or_equal():
    rows = parity.verdicts(outputs(1), outputs(1))
    assert all(ok for *_, ok in rows)
    assert {text for _, _, text, _ in rows} == {"bitwise", "equal"}


def test_perturbed_factor_array_is_flagged_in_every_mode():
    for mode in parity.MODES:
        head = outputs(1)
        head[mode]["P"][2, 1] = np.nextafter(head[mode]["P"][2, 1], np.inf)
        assert broken(outputs(1), head) == {(mode, "P")}


@pytest.mark.parametrize("mode", list(parity.MODES))
def test_ulp_level_scores_pass_only_with_a_semantic_term(mode):
    head = outputs(1)
    head[mode]["test_scores"] = head[mode]["test_scores"] * (1 + 4e-16)
    expected = set() if parity.has_semantic_term(mode) else {(mode, "test_scores")}
    assert broken(outputs(1), head) == expected


def test_scores_beyond_the_bound_are_flagged():
    head = outputs(1)
    head["additive-0.5"]["losses"] = head["additive-0.5"]["losses"] * (1 + 1e-10)
    assert broken(outputs(1), head) == {("additive-0.5", "losses")}


def test_changed_lists_reports_and_missing_outputs_are_flagged():
    head = outputs(1)
    head["additive-0.5"]["topk"] = [[0, 1, 2], [3, 1, 0]]
    head["convex-0.3"]["report"] = '{"precision": 0.26}'
    del head["mf"]["model_file"]
    assert broken(outputs(1), head) == {
        ("additive-0.5", "topk"), ("convex-0.3", "report"), ("mf", "model_file"),
    }


def test_shape_change_is_flagged_not_raised():
    head = outputs(1)
    head["mf"]["P"] = head["mf"]["P"][:, :2]
    assert broken(outputs(1), head) == {("mf", "P")}


def test_dataset_outputs_name_the_array_that_changed(small_dataset):
    """Each id list and split column is its own output, judged bitwise in every ingest."""
    base = {name: parity.dataset_outputs(small_dataset) for name in parity.INGESTS}
    assert set(base["csv"]) == {"user_ids", "item_ids"} | {
        f"{part}.{column}"
        for part in ("train", "validation", "test")
        for column in ("users", "items", "ratings")
    }
    head = {name: parity.dataset_outputs(small_dataset) for name in parity.INGESTS}
    assert broken(base, head) == set()
    head["csv"]["validation.ratings"] = head["csv"]["validation.ratings"] * (1 + 4e-16)
    head["movielens100k"]["item_ids"] = head["movielens100k"]["item_ids"][::-1]
    assert broken(base, head) == {("csv", "validation.ratings"), ("movielens100k", "item_ids")}
