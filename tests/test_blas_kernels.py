"""MF and alpha=0 models give the same bits under every OpenBLAS kernel.

Each child process trains under one ``OPENBLAS_CORETYPE``, with one BLAS
thread, and prints digests of what it trained and of what the models return:
scores, cold-start scores, ``recommend`` rows, an evaluation report and the
loss gradients with the projection at alpha=0.5.  OpenBLAS built with
``DYNAMIC_ARCH`` (numpy's wheels on x86-64) reads the variable at start-up
and picks that CPU family's kernels, whose ``ddot`` and GEMM round in their
own summation order.  Every dot product behind these values is the row-wise
``einsum`` of ``mf._row_dot``, which no BLAS kernel computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rexfuse
from synth import make_fusion_rows, write_csv, write_item_text_jsonl

KERNELS = ("Haswell", "Sandybridge", "Prescott")

CHILD = r"""
import hashlib, json, os, sys

import numpy as np

from rexfuse.dataset import build_dataset, load_interactions, load_item_text
from rexfuse.evaluate import EvalConfig, evaluate_model, recommend_for_user
from rexfuse.hybrid import train_hybrid
from rexfuse.mf import TrainConfig, loss_gradients, train_mf
from rexfuse.persist import MODE_HYBRID, MODE_MF, ModelBundle, save_bundle
from rexfuse.semantic import embed_corpus

ratings, texts, out = sys.argv[1:]


def digest(value):
    return hashlib.sha256(np.ascontiguousarray(value, dtype=np.float64).tobytes()).hexdigest()


# BLAS-bound probe: ddot and GEMM of seeded data, whose bits follow the kernel
rng = np.random.default_rng(0)
a, b = rng.standard_normal((64, 257)), rng.standard_normal((257, 48))
result = {"probe": digest([a[0] @ b[:, 0], *(a @ b).ravel()])}

dataset = build_dataset(load_interactions(ratings, "csv"), 3)
config = TrainConfig(n_factors=32, learning_rate=0.02, epochs=3, seed=5)
table = embed_corpus(load_item_text(texts, dataset.items), 64)
for name in ("mf", "alpha0"):
    if name == "mf":
        model, losses = train_mf(dataset, config)
        mode, provider, arrays = MODE_MF, None, (model.user_factors, model.item_factors)
    else:
        model, losses = train_hybrid(dataset, table, config, alpha=0.0)
        mode, provider = MODE_HYBRID, {"kind": "hashed_bow", "dim": table.dim}
        arrays = (model.factors.user_factors, model.factors.item_factors, model.projection)
    save_bundle(
        ModelBundle(
            mode=mode, model=model, users=dataset.users, items=dataset.items, config=config,
            split_seed=3, item_train_counts=dataset.item_train_counts(),
            embedding_provider=provider,
        ),
        out,
    )
    with open(out, "rb") as fh:
        model_file = hashlib.sha256(fh.read()).hexdigest()
    counts = dataset.item_train_counts()
    rows = [
        row[:2] for u in range(5)
        for row in recommend_for_user(model, u, model.n_items, counts, include_cold=True)
    ]
    result[name] = {
        "arrays": [digest(x) for x in arrays], "losses": digest(losses), "model_file": model_file,
        "recommend": digest(rows),
        "report": evaluate_model(model, dataset, EvalConfig(top_k=10)).to_json(),
    }
# the alpha=0 model's semantic term, and the gradients of its factors with W at alpha=0.5
users = np.arange(model.n_users)
result["alpha0"]["semantic"] = digest(model.semantic.score_items(users[:, None], slice(None)))
grads = loss_gradients(
    model.factors, dataset.train, config.reg, projection=model.projection,
    embeddings=table.dense(model.n_items), alpha=0.5,
)
result["alpha0"]["gradients"] = [digest(g) for g in grads]
print(json.dumps(result))
"""


def _train_under(kernel, tmp_path, ratings, texts):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
    src = str(Path(rexfuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, ratings, texts, str(tmp_path / f"{kernel}.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_mf_and_alpha0_training_are_bitwise_equal_across_openblas_kernels(tmp_path):
    rows, texts = make_fusion_rows(seed=4, n_users=150, n_items=300, rated_per_user=50)
    ratings, item_text = tmp_path / "ratings.csv", tmp_path / "texts.jsonl"
    write_csv(ratings, rows)
    write_item_text_jsonl(item_text, texts)
    runs = {k: _train_under(k, tmp_path, str(ratings), str(item_text)) for k in KERNELS}

    if len({run.pop("probe") for run in runs.values()}) == 1:
        pytest.skip(
            "OPENBLAS_CORETYPE left the bits of a BLAS product unchanged, so this BLAS "
            "ignores it (not OpenBLAS with DYNAMIC_ARCH on x86-64): no second kernel to compare"
        )
    first, *others = KERNELS
    for kernel in others:
        assert runs[kernel] == runs[first], f"{kernel} trained other bits than {first}"
