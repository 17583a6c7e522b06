"""The verdict logic of ``tools/parity.py``: what counts as a break of the determinism contract."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from synth import make_fusion_rows, write_item_text_jsonl

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


def cli_outputs():
    """A few outputs of the ``cli`` mode: text, an exit code and a written file."""
    return {"cli": {
        "train mf: stdout": "epoch   1/3  loss 16.473775\nsaved mf model to m.json\n",
        "train mf: stderr": "",
        "train mf: exit": 0,
        "train mf: cli-mf.json": b'{"version": 1, "mode": "mf"}\n',
        "train --reg nan: cli-nan.json": None,
    }}


@pytest.mark.parametrize(
    "name, changed",
    [
        ("train mf: stdout", "epoch   1/3  loss 16.473776\nsaved mf model to m.json\n"),
        ("train mf: stderr", " "),
        ("train mf: exit", 1),
        ("train mf: cli-mf.json", b'{"version": 1, "mode": "mf"} \n'),
        ("train --reg nan: cli-nan.json", b""),
    ],
)
def test_one_character_cli_difference_breaks_the_contract(name, changed):
    """The cli mode has no ulp allowance: a last-digit loss change is a break like any other."""
    rows = parity.verdicts(cli_outputs(), cli_outputs())
    assert {text for _, _, text, ok in rows if ok} == {"equal"} and all(ok for *_, ok in rows)
    head = cli_outputs()
    head["cli"][name] = changed
    assert broken(cli_outputs(), head) == {("cli", name)}


def test_cli_leg_records_every_run(tmp_path, monkeypatch):
    """Each run's stdout, stderr and exit code are kept, and the bytes of what it writes."""
    monkeypatch.setenv("COLUMNS", "80")  # restored afterwards, though cli_outputs sets its own
    monkeypatch.delenv("REXFUSE_SEED", raising=False)
    rows, texts = make_fusion_rows(seed=5, n_users=24, n_items=40, rated_per_user=12)
    with open(tmp_path / "ratings.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{user}\t{item}\t{rating}\t0\n" for user, item, rating in rows)
    write_item_text_jsonl(tmp_path / "texts.jsonl", texts)
    outputs = parity.cli_outputs(tmp_path, ["u0", "u5"])
    runs = parity.cli_runs(tmp_path, ["u0", "u5"])
    assert {name.split(": ")[0] for name in outputs} == set(runs)
    for name in runs:
        failing = name in ("recommend --k-at 0", "train --reg nan")
        assert outputs[f"{name}: exit"] == (1 if failing else 0), name
        assert outputs[f"{name}: stderr"].startswith("error: ") == failing, name
    assert outputs["train --help: stdout"].startswith("usage: rexfuse train")
    assert outputs["recommend u5: stdout"].startswith("1,")
    assert json.loads(outputs["sweep: cli-sweep.json"])[0]["alpha"] == 0.0
    assert outputs["train mf: cli-mf.json"].startswith(b'{"version": 1, "mode": "mf"')
    assert outputs["train --reg nan: cli-nan.json"] is None
