#!/usr/bin/env python3
"""Parity check: the library at a git revision against this checkout, output by output.

    python tools/parity.py --base REV

exports REV's ``src/`` with ``git archive`` and runs one driver under each
``src/`` tree (REV's, then this working tree's) in a child process.  The
driver trains every mode below on the long-tail stand-in
(``perfbench/gen.write_longtail``, seed 7, 943 users x 1682 items x 100k
ratings; k=32, lr 0.02, 3 epochs) and records P, Q, ``W``, the embeddings,
the losses, ``predict_pairs`` on the test split, the evaluation report at
K=10 and at K = n_items (every candidate ranked), the top-10 list of every
user, the ``recommend`` lists of every 7th user (with and without cold
items) at K=10 and at K = n_items (every candidate listed), the model-file
bytes and the K=10 report of the model ``load_bundle`` reads back from that
file (the ``cli`` mode reloads only alpha = 0 models).  It also ingests the
ratings as a MovieLens file, as a CRLF rendering of it (``\\r\\n`` line
ends), as a decimal rendering (non-integer rating texts in several spellings,
``write_decimal_rendering``), as a wide rendering (one user id of ``WIDE_ID``
bytes, which the bulk parser encodes field by field rather than in word
passes, ``write_wide_rendering``) and as a CSV rendering of the MovieLens
file's rows, and records each dataset's user and item id lists and every
train, validation and test column.  Its ``cli`` mode runs
``rexfuse.cli.main`` in-process on the same files (``COLUMNS`` fixed,
``$REXFUSE_SEED`` unset; see ``cli_runs``) and records each run's stdout,
stderr, exit code and the bytes of each file it writes.

It prints, per mode and output, ``bitwise`` (arrays), ``equal`` (lists,
reports, file bytes) or the largest difference relative to the largest entry,
then a last line with the count of each verdict (``summary``), and exits 1
when an output breaks README's determinism contract:

* both datasets, and in every mode P, Q, ``W``, the embeddings and the model
  file, are bitwise equal;
* in the modes without a semantic term (mf, alpha=0) every output is, and
  every output of the ``cli`` mode is equal: it holds no alpha > 0 run, since
  a printed loss there may move in its last digit;
* at alpha > 0 the reports, top-K lists and ``recommend`` item lists are
  equal, and the losses and scores agree within ``ULP_BOUND`` relative.
"""

import argparse
import contextlib
import io
import math
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SHAPE = dict(n_users=943, n_items=1682, n_ratings=100_000,
             exponent=1.2, single_share=0.10, textless_share=0.08)
TRAIN = dict(n_factors=32, learning_rate=0.02, epochs=3, seed=SEED)
EMBED_DIM = 64
TOP_K = 10
RECOMMEND_EVERY = 7

# mode -> (fusion, alpha), None for plain MF
MODES = {
    "mf": None,
    "additive-0": ("additive", 0.0),
    "convex-0": ("convex", 0.0),
    "additive-0.5": ("additive", 0.5),
    "convex-0.3": ("convex", 0.3),
}
# outputs that may differ at the ulp level in modes with a semantic term
ULP_OUTPUTS = {"losses", "test_scores", "recommend_scores"}
ULP_BOUND = 1e-12
# the renderings of the ratings that are ingested: (file name, format)
INGESTS = {"movielens100k": ("ratings.tsv", "movielens100k"),
           "crlf": ("ratings-crlf.tsv", "movielens100k"),
           "decimal": ("ratings-decimal.tsv", "movielens100k"),
           "wide": ("ratings-wide.tsv", "movielens100k"), "csv": ("ratings.csv", "csv")}
# the decimal rendering's spellings of a rating; row k takes SPELLINGS[k % 7]
SPELLINGS = ("{}", "+{}", " {}", "{}e0", "0{}", "{}_0", "{:.17f}")
# the wide rendering's first user id, left-padded with zeros to this many bytes
WIDE_ID = 200_000


def has_semantic_term(mode):
    return MODES.get(mode) is not None and MODES[mode][1] > 0


def dataset_outputs(dataset):
    """The id lists and every split column of a dataset, each its own output."""
    outputs = {"user_ids": dataset.users.ids, "item_ids": dataset.items.ids}
    for part in ("train", "validation", "test"):
        for column in ("users", "items", "ratings"):
            outputs[f"{part}.{column}"] = getattr(getattr(dataset, part), column)
    return outputs


def write_csv_rendering(tsv, csv):
    """The MovieLens file's rows as a CSV file with a timestamp column."""
    with open(tsv, encoding="utf-8") as src, open(csv, "w", encoding="utf-8") as dst:
        dst.write("user_id,item_id,rating,timestamp\n")
        for line in src:
            dst.write(line.replace("\t", ","))


def write_decimal_rendering(tsv, decimal):
    """The MovieLens file with row k's rating r written as r - (k mod 8)/8, spelled by ``SPELLINGS``."""
    with open(tsv, encoding="utf-8") as src, open(decimal, "w", encoding="utf-8") as dst:
        for k, line in enumerate(src):
            user, item, rating, stamp = line.split("\t")
            text = SPELLINGS[k % len(SPELLINGS)].format(int(rating) - (k % 8) / 8)
            dst.write("\t".join((user, item, text, stamp)))


def write_wide_rendering(tsv, wide):
    """The MovieLens file with its first row's user id left-padded with zeros to ``WIDE_ID`` bytes."""
    with open(tsv, encoding="utf-8") as src, open(wide, "w", encoding="utf-8") as dst:
        user, rest = next(src).split("\t", 1)
        dst.write(f"{user:0>{WIDE_ID}}\t{rest}")
        dst.writelines(src)


def write_crlf_rendering(tsv, crlf):
    """The MovieLens file with each line ending in ``\\r\\n``."""
    Path(crlf).write_bytes(Path(tsv).read_bytes().replace(b"\n", b"\r\n"))


def cli_runs(data_dir, users):
    """{run name: argv} of the ``cli`` mode over the ratings and texts in ``data_dir``."""
    data_dir = Path(data_dir)
    data = ["--data", str(data_dir / "ratings.tsv"), "--format", "movielens100k"]
    text = ["--item-text", str(data_dir / "texts.jsonl")]
    mf, hybrid = str(data_dir / "cli-mf.json"), str(data_dir / "cli-hybrid.json")
    runs = {"--help": ["--help"]}
    runs.update({f"{command} --help": [command, "--help"]
                 for command in ("train", "evaluate", "recommend", "sweep")})
    runs["train mf"] = ["train", *data, "--mode", "mf", "--epochs", "3", "--out", mf]
    runs["train hybrid"] = ["train", *data, *text, "--mode", "hybrid", "--alpha", "0",
                            "--epochs", "3", "--out", hybrid]
    for name, model in (("mf", mf), ("hybrid", hybrid)):
        runs[f"evaluate {name}"] = ["evaluate", "--model", model, *data,
                                    "--json", str(data_dir / f"cli-{name}-report.json")]
    for user in users:
        runs[f"recommend {user}"] = ["recommend", "--model", hybrid, "--user", user,
                                     "--include-cold"]
    runs["sweep"] = ["sweep", *data, *text, "--alphas", "0", "--epochs", "3",
                     "--json", str(data_dir / "cli-sweep.json")]
    runs["recommend --k-at 0"] = ["recommend", "--model", mf, "--user", users[0], "--k-at", "0"]
    runs["train --reg nan"] = ["train", *data, "--mode", "mf", "--reg", "nan",
                               "--out", str(data_dir / "cli-nan.json")]
    return runs


def cli_outputs(data_dir, users):
    """Stdout, stderr, exit code and written files of each ``cli_runs`` run, in order.

    Sets ``COLUMNS`` and unsets ``REXFUSE_SEED`` in this process's environment.
    """
    from rexfuse.cli import main

    os.environ["COLUMNS"] = "100"  # argparse wraps --help text to the terminal width
    os.environ.pop("REXFUSE_SEED", None)
    outputs = {}
    for name, argv in cli_runs(data_dir, users).items():
        written = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag in ("--out", "--json")]
        for path in written:
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and argparse errors
                code = exc.code
        outputs.update({f"{name}: stdout": stdout.getvalue(), f"{name}: stderr": stderr.getvalue(),
                        f"{name}: exit": code})
        for path in written:
            outputs[f"{name}: {path.name}"] = path.read_bytes() if path.exists() else None
    return outputs


def drive(src, data_dir):
    """Every output of every mode, computed by the package under ``src``."""
    sys.path.insert(0, src)
    import rexfuse
    from rexfuse import (
        EvalConfig, ModelBundle, TrainConfig, build_dataset, embed_corpus, evaluate_model,
        load_bundle, load_interactions, load_item_text, recommend_for_user, save_bundle, topk,
        train_hybrid, train_mf,
    )

    if not Path(rexfuse.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"parity: imported rexfuse from {rexfuse.__file__}, not from {src}")
    data_dir = Path(data_dir)
    datasets = {name: build_dataset(load_interactions(data_dir / file, fmt), SEED)
                for name, (file, fmt) in INGESTS.items()}
    dataset = datasets["movielens100k"]
    table = embed_corpus(load_item_text(data_dir / "texts.jsonl", dataset.items), EMBED_DIM)
    config = TrainConfig(**TRAIN)
    train, test = dataset.train, dataset.test
    counts = dataset.item_train_counts()
    train_items = {}
    for u, i in zip(train.users.tolist(), train.items.tolist()):
        train_items.setdefault(u, set()).add(i)
    results = {name: dataset_outputs(ds) for name, ds in datasets.items()}
    for mode, head in MODES.items():
        if head is None:
            model, losses = train_mf(dataset, config)
            factors, outputs = model, {}
        else:
            fusion, alpha = head
            model, losses = train_hybrid(dataset, table, config, alpha, fusion=fusion)
            factors, outputs = model.factors, {"W": model.projection, "E": table.dense(len(counts))}
        rows, rows_all = ([recommend_for_user(model, u, k, counts, include_cold=cold)
                           for cold in (False, True)
                           for u in range(0, dataset.n_users, RECOMMEND_EVERY)]
                          for k in (TOP_K, dataset.n_items))
        path = data_dir / f"{mode}.model.json"
        save_bundle(ModelBundle("mf" if head is None else "hybrid", model, dataset.users,
                                dataset.items, config, SEED, counts,
                                None if head is None else {"kind": "hashed_bow", "dim": EMBED_DIM}),
                    path)
        outputs.update(
            P=factors.user_factors,
            Q=factors.item_factors,
            losses=np.array(losses),
            test_scores=model.predict_pairs(test.users, test.items),
            report=evaluate_model(model, dataset, EvalConfig(top_k=TOP_K)).to_json(),
            # every candidate ranked: an item that leaks past the mask changes this report
            report_all=evaluate_model(model, dataset, EvalConfig(top_k=dataset.n_items)).to_json(),
            topk=[topk(model, u, TOP_K, exclude=train_items.get(u, ()))
                  for u in range(dataset.n_users)],
            recommend_items=[[(i, label) for i, _, label in row] for row in rows],
            recommend_scores=np.array([score for row in rows for _, score, _ in row]),
            # every candidate listed: a leaked or wrongly routed item changes these lists
            recommend_all=[[(i, label) for i, _, label in row] for row in rows_all],
            model_file=path.read_bytes(),
            reloaded_report=evaluate_model(
                load_bundle(path).model, dataset, EvalConfig(top_k=TOP_K)
            ).to_json(),
        )
        results[mode] = outputs
    results["cli"] = cli_outputs(data_dir, dataset.users.ids[::300])
    return results


def difference(base, head):
    """None when ``head`` equals ``base`` bit for bit; else the largest difference
    relative to base's largest entry (inf when shapes, types or values are not comparable)."""
    if not isinstance(base, np.ndarray):
        return None if type(base) is type(head) and base == head else math.inf
    if not isinstance(head, np.ndarray) or (base.dtype, base.shape) != (head.dtype, head.shape):
        return math.inf
    if base.tobytes() == head.tobytes():
        return None
    scale = np.max(np.abs(base))
    return float(np.max(np.abs(head - base)) / scale) if scale > 0 else math.inf


def verdicts(base, head):
    """(mode, output, verdict, ok) for each output of ``base``, judged by the contract."""
    rows = []
    for mode, outputs in base.items():
        for name, value in outputs.items():
            if name not in head.get(mode, {}):
                rows.append((mode, name, "missing", False))
                continue
            rel = difference(value, head[mode][name])
            if rel is None:
                text, ok = ("bitwise" if isinstance(value, np.ndarray) else "equal"), True
            else:
                text = "differs" if rel == math.inf else f"{rel:.2e} relative"
                ok = has_semantic_term(mode) and name in ULP_OUTPUTS and rel <= ULP_BOUND
            rows.append((mode, name, text, ok))
    return rows


def summary(rev, rows):
    """The last line of the report: how many outputs break the contract, or, when none does,
    how many are ``bitwise``, ``equal`` and (at alpha > 0) within ``ULP_BOUND``."""
    broken = sum(not ok for *_, ok in rows)
    if broken:
        return f"parity against {rev}: {broken} outputs break the contract"
    texts = [text for _, _, text, _ in rows]
    counts = [f"{texts.count('bitwise')} bitwise", f"{texts.count('equal')} equal"]
    close = len(texts) - texts.count("bitwise") - texts.count("equal")
    if close:
        counts.append(f"{close} within {ULP_BOUND:g} relative")
    return f"parity against {rev}: ok ({', '.join(counts)})"


def export_src(rev, dest):
    """Extract ``src/`` of git revision ``rev`` under ``dest``; return the tree's path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return str(Path(dest) / "src")


def run_child(src, data_dir, out):
    subprocess.run([sys.executable, __file__, "--child", src, data_dir, out], check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this checkout's src/ against")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "DATA", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        src, data_dir, out = args.child
        with open(out, "wb") as fh:
            pickle.dump(drive(src, data_dir), fh)
        return 0
    if not args.base:
        parser.error("--base is required")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    with tempfile.TemporaryDirectory(prefix="rexfuse-parity-") as tmp:
        tmp = Path(tmp)
        gen.write_longtail(tmp / "ratings.tsv", tmp / "texts.jsonl", SEED, **SHAPE)
        write_csv_rendering(tmp / "ratings.tsv", tmp / "ratings.csv")
        write_crlf_rendering(tmp / "ratings.tsv", tmp / "ratings-crlf.tsv")
        write_decimal_rendering(tmp / "ratings.tsv", tmp / "ratings-decimal.tsv")
        write_wide_rendering(tmp / "ratings.tsv", tmp / "ratings-wide.tsv")
        base_src = export_src(args.base, tmp / "base")
        base = run_child(base_src, str(tmp), str(tmp / "base.pickle"))
        head = run_child(str(ROOT / "src"), str(tmp), str(tmp / "head.pickle"))
    rows = verdicts(base, head)
    width = max(len(name) for _, name, _, _ in rows)
    for mode, name, text, ok in rows:
        print(f"{mode:<13} {name:<{width}}  {text}{'' if ok else '  <- breaks the contract'}")
    print(summary(args.base, rows))
    return 0 if all(ok for *_, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
