"""Batch command line: train, evaluate, recommend, and sweep subcommands."""

import argparse
import json
import os
import sys

from .dataset import build_dataset, load_interactions, load_item_text, require_int
from .evaluate import EvalConfig, evaluate_model, recommend_for_user, render_table, sweep_alpha
from .hybrid import DEFAULT_EMBED_DIM, train_hybrid
from .mf import TrainConfig, train_mf
from .persist import MODE_HYBRID, MODE_MF, ModelBundle, load_bundle, save_bundle
from .semantic import embed_corpus, load_embeddings_file

SEED_ENV_VAR = "REXFUSE_SEED"
DEFAULT_SEED = 42


class CliError(Exception):
    """User-facing command error; printed as a one-line diagnostic."""


def _resolve_seed(flag_value):
    """--seed, else $REXFUSE_SEED, else the default; a non-negative integer."""
    name, raw = "--seed", flag_value
    if raw is None:
        name, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        return require_int(name, int(raw), 0)
    except ValueError:
        raise CliError(f"{name} must be a non-negative integer, got {raw!r}") from None


def _embedding_source(args, items, requirement):
    """Resolve --item-text / --embeddings into a table plus provider descriptor."""
    if args.item_text:
        corpus = load_item_text(args.item_text, items)
        table = embed_corpus(corpus, DEFAULT_EMBED_DIM)
        if corpus.skipped:
            print(
                f"warning: skipped {corpus.skipped} item-text records with unknown ids",
                file=sys.stderr,
            )
        return table, {"kind": "hashed_bow", "dim": DEFAULT_EMBED_DIM}
    if args.embeddings:
        table = load_embeddings_file(args.embeddings, items)
        if table.skipped:
            print(
                f"warning: skipped {table.skipped} embeddings with unknown item ids",
                file=sys.stderr,
            )
        return table, {"kind": "file", "path": str(args.embeddings), "dim": table.dim}
    raise CliError(f"{requirement} requires --item-text or --embeddings")


def _train_config(args, seed):
    return TrainConfig(
        n_factors=args.k,
        learning_rate=args.lr,
        reg=args.reg,
        epochs=args.epochs,
        seed=seed,
    )


def _index_mismatch(kind, model_index, data_index):
    model_ids, data_ids = model_index.ids, data_index.ids
    model_set = set(model_ids)
    unknown = [x for x in data_ids if x not in model_set]
    if unknown:
        return f"data file contains {kind} id {unknown[0]!r} unknown to the model"
    if len(data_ids) != len(model_ids):
        return f"model has {len(model_ids)} {kind} ids but the data file yields {len(data_ids)}"
    if model_ids != data_ids:
        return f"{kind} ids appear in a different order than the model was trained on"
    return None


def _load_dataset(path, fmt, seed):
    """The dataset of one interactions file; the rows themselves are not kept."""
    return build_dataset(load_interactions(path, fmt), seed)


def cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    dataset = _load_dataset(args.data, args.format, seed)
    config = _train_config(args, seed)

    if args.mode == MODE_MF:
        model, losses = train_mf(dataset, config)
        provider = None
    else:
        table, provider = _embedding_source(args, dataset.items, "--mode hybrid")
        model, losses = train_hybrid(dataset, table, config, alpha=args.alpha)

    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch {epoch:>3}/{len(losses)}  loss {loss:.6f}")

    bundle = ModelBundle(
        mode=args.mode,
        model=model,
        users=dataset.users,
        items=dataset.items,
        config=config,
        split_seed=seed,
        item_train_counts=dataset.item_train_counts(),
        embedding_provider=provider,
    )
    save_bundle(bundle, args.out)
    print(f"saved {args.mode} model to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.model)
    dataset = _load_dataset(args.data, args.format, bundle.split_seed)
    for kind, model_idx, data_idx in (
        ("user", bundle.users, dataset.users),
        ("item", bundle.items, dataset.items),
    ):
        problem = _index_mismatch(kind, model_idx, data_idx)
        if problem:
            raise CliError(f"model/data mismatch: {problem}")

    alpha = bundle.model.alpha if bundle.mode == MODE_HYBRID else None
    report = evaluate_model(
        bundle.model,
        dataset,
        EvalConfig(top_k=args.k_at, relevance_threshold=args.threshold),
        alpha=alpha,
    )
    print(render_table([report]))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_recommend(args) -> int:
    bundle = load_bundle(args.model)
    if args.user not in bundle.users:
        raise CliError(f"unknown user {args.user!r}")
    u = bundle.users.index(args.user)
    rows = recommend_for_user(
        bundle.model,
        u,
        args.k_at,
        bundle.item_train_counts,
        include_cold=args.include_cold,
    )
    for rank, (item, score, path) in enumerate(rows, start=1):
        print(f"{rank},{bundle.items.id(item)},{score:.6f},{path}")
    return 0


def cmd_sweep(args) -> int:
    try:
        alphas = [float(part) for part in args.alphas.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    if not alphas:
        raise CliError("--alphas must name at least one value")

    seed = _resolve_seed(args.seed)
    dataset = _load_dataset(args.data, args.format, seed)
    table, _ = _embedding_source(args, dataset.items, "sweep")
    config = _train_config(args, seed)

    reports = sweep_alpha(
        dataset,
        table,
        config,
        alphas,
        EvalConfig(top_k=args.k_at, relevance_threshold=args.threshold),
    )
    print(render_table(reports))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, sort_keys=True)
            fh.write("\n")
    return 0


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="interactions file")
    parser.add_argument(
        "--format",
        required=True,
        choices=["movielens100k", "csv"],
        help="interactions file format",
    )


def _add_training_flags(parser):
    parser.add_argument("--k", type=int, default=32, help="latent dimension (default 32)")
    parser.add_argument("--lr", type=float, default=0.005, help="learning rate (default 0.005)")
    parser.add_argument("--reg", type=float, default=0.02, help="regularization (default 0.02)")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs (default 30)")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"split/training seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})",
    )


def _add_text_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--item-text", help="item text JSON-lines file (hashed bag-of-words)")
    group.add_argument("--embeddings", help="precomputed embedding JSON-lines file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexfuse",
        description="Hybrid recommender: latent factors fused with item-text embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save it")
    _add_data_flags(p_train)
    _add_text_flags(p_train)
    p_train.add_argument("--mode", required=True, choices=[MODE_MF, MODE_HYBRID])
    p_train.add_argument(
        "--alpha", type=float, default=0.5, help="fusion weight, hybrid only (default 0.5)"
    )
    _add_training_flags(p_train)
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model on its test split")
    p_eval.add_argument("--model", required=True, help="model file from train")
    _add_data_flags(p_eval)
    p_eval.add_argument("--k-at", type=int, default=10, help="list length K (default 10)")
    p_eval.add_argument(
        "--threshold", type=float, default=4.0, help="relevance rating cutoff (default 4.0)"
    )
    p_eval.add_argument("--json", help="also write the report as JSON to this path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rec = sub.add_parser("recommend", help="print top-K items for one user")
    p_rec.add_argument("--model", required=True, help="model file from train")
    p_rec.add_argument("--user", required=True, help="external user id")
    p_rec.add_argument("--k-at", type=int, default=10, help="list length K (default 10)")
    p_rec.add_argument(
        "--include-cold",
        action="store_true",
        help="also rank items with no training interactions via the content path",
    )
    p_rec.set_defaults(func=cmd_recommend)

    p_sweep = sub.add_parser("sweep", help="train and evaluate over a grid of fusion weights")
    _add_data_flags(p_sweep)
    _add_text_flags(p_sweep)
    p_sweep.add_argument(
        "--alphas", required=True, help="comma-separated fusion weights, e.g. 0.3,0.5,0.7"
    )
    _add_training_flags(p_sweep)
    p_sweep.add_argument("--k-at", type=int, default=10, help="list length K (default 10)")
    p_sweep.add_argument(
        "--threshold", type=float, default=4.0, help="relevance rating cutoff (default 4.0)"
    )
    p_sweep.add_argument("--json", help="also write the reports as JSON to this path")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
