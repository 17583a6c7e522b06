import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rexfuse.cli import main
from rexfuse.dataset import build_dataset, load_interactions
from rexfuse.persist import load_bundle

from synth import make_fusion_rows, write_csv, write_item_text_jsonl


@pytest.fixture
def fusion_files(tmp_path):
    rows, texts = make_fusion_rows(seed=5, n_users=24, n_items=40, rated_per_user=12)
    data = tmp_path / "ratings.csv"
    text = tmp_path / "texts.jsonl"
    write_csv(data, rows)
    write_item_text_jsonl(text, texts)
    return str(data), str(text)


def run(argv):
    return main(argv)


# ---------------------------------------------------------------- train

def test_train_mf_writes_model_and_loss_trace(fusion_files, tmp_path, capsys):
    data, _ = fusion_files
    out = str(tmp_path / "mf.json")
    code = run(["train", "--data", data, "--format", "csv", "--mode", "mf",
                "--k", "4", "--epochs", "6", "--seed", "11", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    epoch_lines = [l for l in captured.out.splitlines() if l.startswith("epoch")]
    assert len(epoch_lines) == 6
    bundle = load_bundle(out)
    assert bundle.mode == "mf"
    assert bundle.split_seed == 11


def test_train_hybrid_requires_text_source(fusion_files, tmp_path, capsys):
    data, _ = fusion_files
    code = run(["train", "--data", data, "--format", "csv", "--mode", "hybrid",
                "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "--item-text" in captured.err and "--embeddings" in captured.err


def test_train_hybrid_alpha_zero_predicts_like_mf(fusion_files, tmp_path, capsys):
    data, text = fusion_files
    mf_out = str(tmp_path / "mf.json")
    hy_out = str(tmp_path / "hy.json")
    common = ["--data", data, "--format", "csv", "--k", "4", "--epochs", "5", "--seed", "3"]
    assert run(["train", *common, "--mode", "mf", "--out", mf_out]) == 0
    assert run(["train", *common, "--mode", "hybrid", "--item-text", text,
                "--alpha", "0", "--out", hy_out]) == 0
    capsys.readouterr()

    mf_bundle, hy_bundle = load_bundle(mf_out), load_bundle(hy_out)
    rng = np.random.default_rng(0)
    users = rng.integers(0, len(mf_bundle.users), 500)
    items = rng.integers(0, len(mf_bundle.items), 500)
    assert np.array_equal(
        mf_bundle.model.predict_pairs(users, items),
        hy_bundle.model.predict_pairs(users, items),
    )


@pytest.fixture
def embeddings_file(fusion_files, tmp_path):
    """One 5-wide vector per item of the fusion data, plus one for an unknown id."""
    data, _ = fusion_files
    items = sorted({row.item for row in load_interactions(data, "csv")})
    rng = np.random.default_rng(4)
    vectors = {item: rng.normal(size=5).tolist() for item in items}
    path = tmp_path / "vectors.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, vec in [*vectors.items(), ("no-such-item", [1.0] * 5)]:
            fh.write(json.dumps({"item_id": item_id, "vector": vec}) + "\n")
    return str(path), vectors


SKIPPED_EMBEDDING = "warning: skipped 1 embeddings with unknown item ids\n"


def test_train_hybrid_from_embeddings_file(fusion_files, embeddings_file, tmp_path, capsys):
    data, _ = fusion_files
    vectors_path, vectors = embeddings_file
    out = str(tmp_path / "hy.json")
    code = run(["train", "--data", data, "--format", "csv", "--mode", "hybrid",
                "--embeddings", vectors_path, "--k", "4", "--epochs", "2", "--out", out])
    assert code == 0
    assert capsys.readouterr().err == SKIPPED_EMBEDDING
    bundle = load_bundle(out)
    assert bundle.embedding_provider == {"kind": "file", "path": vectors_path, "dim": 5}
    table = bundle.model.embeddings
    assert len(table) == len(vectors)
    for item_id, vec in vectors.items():
        assert table.dense(len(bundle.items))[bundle.items.index(item_id)].tolist() == vec


def test_sweep_from_embeddings_file(fusion_files, embeddings_file, capsys):
    data, _ = fusion_files
    vectors_path, _ = embeddings_file
    code = run(["sweep", "--data", data, "--format", "csv", "--embeddings", vectors_path,
                "--alphas", "0,0.5", "--k", "4", "--epochs", "2", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == SKIPPED_EMBEDDING
    assert [l.split()[0] for l in captured.out.strip().splitlines()[1:]] == ["0.00", "0.50"]


def test_train_unreadable_path_fails_cleanly(tmp_path, capsys):
    code = run(["train", "--data", str(tmp_path / "missing.csv"), "--format", "csv",
                "--mode", "mf", "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_seed_env_var_is_default_and_flag_wins(fusion_files, tmp_path, capsys, monkeypatch):
    data, _ = fusion_files
    monkeypatch.setenv("REXFUSE_SEED", "123")
    out_env = str(tmp_path / "env.json")
    run(["train", "--data", data, "--format", "csv", "--mode", "mf",
         "--epochs", "1", "--out", out_env])
    assert load_bundle(out_env).split_seed == 123

    out_flag = str(tmp_path / "flag.json")
    run(["train", "--data", data, "--format", "csv", "--mode", "mf",
         "--epochs", "1", "--seed", "7", "--out", out_flag])
    assert load_bundle(out_flag).split_seed == 7
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_seed_flag_rejected_naming_the_flag(fusion_files, tmp_path, capsys, command):
    data, text = fusion_files
    extra = ["--mode", "mf", "--out", str(tmp_path / "m.json")]
    if command == "sweep":
        extra = ["--item-text", text, "--alphas", "0.5"]
    code = run([command, "--data", data, "--format", "csv", "--epochs", "1",
                "--seed", "-1", *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
def test_bad_seed_env_var_rejected_naming_the_variable(fusion_files, tmp_path, capsys,
                                                       monkeypatch, value):
    data, _ = fusion_files
    monkeypatch.setenv("REXFUSE_SEED", value)
    code = run(["train", "--data", data, "--format", "csv", "--mode", "mf",
                "--epochs", "1", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: REXFUSE_SEED must be a non-negative integer, got {value!r}\n"


ALLOC_FAILURE = "Unable to allocate 17.9 GiB for an array with shape (24, 100000000)"


@pytest.mark.parametrize(
    "message, printed",
    [(ALLOC_FAILURE, ALLOC_FAILURE), ("", "MemoryError")],
    ids=["numpy-message", "no-message"],
)
def test_memory_error_is_one_line(fusion_files, tmp_path, capsys, monkeypatch, message, printed):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("rexfuse.mf.init_factors", out_of_memory)
    data, _ = fusion_files
    code = run(["train", "--data", data, "--format", "csv", "--mode", "mf",
                "--epochs", "1", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {printed}\n"


def test_oversized_csv_field_fails_naming_file_and_line(tmp_path, capsys):
    """The csv module's own errors end in one ``error:`` line, not a traceback."""
    path = tmp_path / "ratings.csv"
    path.write_text("user_id,item_id,rating\nu1,i1,4\nu1," + "x" * 140_000 + ",3\n")
    code = run(["train", "--data", str(path), "--format", "csv", "--mode", "mf",
                "--out", str(tmp_path / "m.json")])
    limit = csv.field_size_limit()
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}:3: field larger than field limit ({limit})\n"
    )


def test_csv_error_names_the_line_after_a_multiline_field(tmp_path, capsys):
    """A quoted id spanning lines 2-3 moves the next record to line 4, and the message says so."""
    path = tmp_path / "ratings.csv"
    path.write_text('user_id,item_id,rating\n"u\n1",i1,4\nu2,i2,x\n')
    code = run(["train", "--data", str(path), "--format", "csv", "--mode", "mf",
                "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}:4: non-numeric rating 'x'\n"


# the bytes of each line-numbered input with one invalid UTF-8 byte, and its line
INVALID_UTF8 = {
    "movielens": (b"u1\ti1\t4\t1\n\xffu2\ti2\t3\t2\n", 2),
    "csv": (b"user_id,item_id,rating\nu1,i1,4\r\n\ru2,i2\xff,3\n", 4),
    "item-text": (b'{"item_id": "a", "text": "x"}\n\n{"item_id": "b", "text": "\xff"}\n', 3),
    "embeddings": (b'{"item_id": "a", "vector": [1.0]}\n{"item_id": "\xff", "vector": [1.0]}\n', 2),
}


@pytest.mark.parametrize("kind", [*INVALID_UTF8, "model"])
def test_invalid_utf8_fails_naming_file_and_line(kind, trained_mf, tmp_path, capsys):
    data, model = trained_mf
    bad, out = tmp_path / "bad", str(tmp_path / "m.json")
    if kind == "model":
        content = Path(model).read_bytes().replace(b'"users": ["', b'"users": ["\xff', 1)
        where = f"{bad}: invalid UTF-8 (invalid start byte)"
    else:
        content, line = INVALID_UTF8[kind]
        where = f"{bad}:{line}: invalid UTF-8 (byte 0xff)"
    bad.write_bytes(content)
    argv = {
        "movielens": ["train", "--data", str(bad), "--format", "movielens100k", "--mode", "mf"],
        "csv": ["train", "--data", str(bad), "--format", "csv", "--mode", "mf"],
        "item-text": ["train", "--data", data, "--format", "csv", "--mode", "hybrid",
                      "--item-text", str(bad)],
        "embeddings": ["train", "--data", data, "--format", "csv", "--mode", "hybrid",
                       "--embeddings", str(bad)],
        "model": ["evaluate", "--model", str(bad), "--data", data, "--format", "csv"],
    }[kind]
    code = run(argv if kind == "model" else [*argv, "--out", out])
    assert code == 1
    assert capsys.readouterr().err == f"error: {where}\n"


# ---------------------------------------------------------------- evaluate

@pytest.fixture
def trained_mf(fusion_files, tmp_path, capsys):
    data, _ = fusion_files
    out = str(tmp_path / "mf.json")
    run(["train", "--data", data, "--format", "csv", "--mode", "mf",
         "--k", "4", "--epochs", "6", "--seed", "11", "--out", out])
    capsys.readouterr()
    return data, out


def test_evaluate_prints_table_and_json_agrees(trained_mf, tmp_path, capsys):
    data, model = trained_mf
    json_path = str(tmp_path / "report.json")
    code = run(["evaluate", "--model", model, "--data", data, "--format", "csv",
                "--json", json_path])
    captured = capsys.readouterr()
    assert code == 0

    report = json.loads(Path(json_path).read_text())
    for key in ("precision", "recall", "coverage"):
        assert 0.0 <= report[key] <= 1.0
    assert report["alpha"] is None

    row = captured.out.splitlines()[-1].split()
    assert float(row[0]) == pytest.approx(100 * report["precision"], abs=0.005)
    assert float(row[1]) == pytest.approx(100 * report["recall"], abs=0.005)
    assert float(row[2]) == pytest.approx(100 * report["coverage"], abs=0.005)
    assert float(row[3]) == pytest.approx(report["rmse"], abs=0.00005)
    assert int(row[4]) == report["n_users_evaluated"]


def test_evaluate_against_foreign_data_fails(trained_mf, tmp_path, capsys):
    _, model = trained_mf
    other_rows, _ = make_fusion_rows(seed=99, n_users=10, n_items=12, rated_per_user=6)
    other = tmp_path / "other.csv"
    write_csv(other, other_rows)
    code = run(["evaluate", "--model", model, "--data", str(other), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert "mismatch" in captured.err


@pytest.mark.parametrize(
    "rewrite, problem",
    [
        (lambda header, rows: header + "".join(rows) + "stranger,i0,4\n",
         "data file contains user id 'stranger' unknown to the model"),
        (lambda header, rows: header + "".join(reversed(rows)),
         "user ids appear in a different order than the model was trained on"),
    ],
    ids=["unknown-id", "reordered-ids"],
)
def test_evaluate_on_mismatched_ids_names_the_problem(trained_mf, tmp_path, capsys,
                                                       rewrite, problem):
    data, model = trained_mf
    header, *rows = Path(data).read_text().splitlines(keepends=True)
    edited = tmp_path / "edited.csv"
    edited.write_text(rewrite(header, rows))
    code = run(["evaluate", "--model", model, "--data", str(edited), "--format", "csv"])
    assert code == 1
    assert capsys.readouterr().err == f"error: model/data mismatch: {problem}\n"


# ---------------------------------------------------------------- recommend

def test_recommend_prints_ranked_lines(trained_mf, capsys):
    data, model = trained_mf
    user = load_bundle(model).users.id(0)
    code = run(["recommend", "--model", model, "--user", user, "--k-at", "5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert len(lines) == 5
    scores = []
    for rank, line in enumerate(lines, start=1):
        fields = line.split(",")
        assert int(fields[0]) == rank
        scores.append(float(fields[2]))
        assert fields[3] == "cf"
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("k", ["0", "-3"])
def test_recommend_k_below_one_fails(trained_mf, capsys, k):
    _, model = trained_mf
    user = load_bundle(model).users.id(0)
    code = run(["recommend", "--model", model, "--user", user, "--k-at", k])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: k must be >= 1, got {k}\n"


def test_train_non_finite_reg_fails_naming_the_field(fusion_files, tmp_path, capsys):
    data, _ = fusion_files
    code = run(["train", "--data", data, "--format", "csv", "--mode", "mf",
                "--reg", "nan", "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: reg must be finite and non-negative, got nan\n"


def test_recommend_unknown_user_fails(trained_mf, capsys):
    _, model = trained_mf
    code = run(["recommend", "--model", model, "--user", "nobody"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown user" in captured.err


def cold_item_fixture(tmp_path):
    """Interactions + texts where item 'cold1' ends up with no training rows.

    'cold1' carries user u0's favorite keyword, appears once in the file, and
    the seed is chosen so its single interaction falls outside the train cut.
    """
    rows = []
    texts = {}
    for i in range(20):
        keyword = "action" if i < 6 else "drama"
        texts[f"i{i}"] = f"a {keyword} film"
    texts["cold1"] = "an action film"
    for u in range(8):
        likes_action = u % 2 == 0
        for i in range(20):
            is_action = i < 6
            rating = 5.0 if is_action == likes_action else 1.0
            rows.append((f"u{u}", f"i{i}", rating))
    rows.append(("u6", "cold1", 5.0))

    data = tmp_path / "cold.csv"
    text = tmp_path / "cold_texts.jsonl"
    write_csv(data, rows)
    write_item_text_jsonl(text, texts)

    interactions = load_interactions(str(data), "csv")
    for seed in range(500):
        ds = build_dataset(interactions, seed)
        cold_idx = ds.items.index("cold1")
        if ds.item_train_counts()[cold_idx] == 0:
            return str(data), str(text), seed
    raise AssertionError("no seed left cold1 out of the training split")


def test_recommend_include_cold_surfaces_matching_item(tmp_path, capsys):
    data, text, seed = cold_item_fixture(tmp_path)
    model = str(tmp_path / "hybrid.json")
    code = run(["train", "--data", data, "--format", "csv", "--mode", "hybrid",
                "--item-text", text, "--alpha", "0.5", "--k", "4", "--lr", "0.05",
                "--epochs", "30", "--seed", str(seed), "--out", model])
    assert code == 0
    capsys.readouterr()

    code = run(["recommend", "--model", model, "--user", "u0", "--k-at", "10"])
    without_cold = capsys.readouterr().out
    assert code == 0
    assert "cold1" not in without_cold

    code = run(["recommend", "--model", model, "--user", "u0", "--k-at", "10",
                "--include-cold"])
    with_cold = capsys.readouterr().out
    assert code == 0
    cold_lines = [l for l in with_cold.strip().splitlines() if l.split(",")[1] == "cold1"]
    assert cold_lines, f"cold1 missing from:\n{with_cold}"
    assert cold_lines[0].split(",")[3] == "cold-start"


# ---------------------------------------------------------------- sweep

def test_sweep_prints_one_row_per_alpha(fusion_files, tmp_path, capsys):
    data, text = fusion_files
    json_path = str(tmp_path / "sweep.json")
    code = run(["sweep", "--data", data, "--format", "csv", "--item-text", text,
                "--alphas", "0.3,0.5,0.7", "--k", "4", "--epochs", "4",
                "--seed", "2", "--json", json_path])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert [l.split()[0] for l in lines[1:]] == ["0.30", "0.50", "0.70"]
    reports = json.loads(Path(json_path).read_text())
    assert [r["alpha"] for r in reports] == [0.3, 0.5, 0.7]


def test_sweep_duplicate_alphas_give_identical_rows(fusion_files, capsys):
    data, text = fusion_files
    code = run(["sweep", "--data", data, "--format", "csv", "--item-text", text,
                "--alphas", "0.5,0.5", "--k", "4", "--epochs", "3", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.strip().splitlines()[1:]
    assert rows[0] == rows[1]


def test_sweep_bad_alphas_fail_cleanly(fusion_files, capsys):
    data, text = fusion_files
    code = run(["sweep", "--data", data, "--format", "csv", "--item-text", text,
                "--alphas", "0.3,oops"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--alphas" in captured.err
