"""Batch command line: train, evaluate, recommend, and sweep subcommands."""

import argparse
import json
import os
import sys

from .dataset import build_dataset, load_interactions, load_item_text, require_int
from .evaluate import EvalConfig, evaluate_model, recommend_for_user, render_table, sweep_alpha
from .hybrid import DEFAULT_EMBED_DIM, train_hybrid
from .mf import FUSION_ADDITIVE, TrainConfig, fusion_weights, train_mf
from .persist import MODE_HYBRID, MODE_MF, ModelBundle, load_bundle, save_bundle
from .semantic import embed_corpus, load_embeddings_file

SEED_ENV_VAR = "REXFUSE_SEED"
# training flag -> (type, TrainConfig field, help); each default is the field's
TRAINING_FLAGS = {
    "k": (int, "n_factors", "latent dimension"),
    "lr": (float, "learning_rate", "learning rate"),
    "reg": (float, "reg", "regularization"),
    "epochs": (int, "epochs", "training epochs"),
}


class CliError(Exception):
    """User-facing command error; printed as a one-line diagnostic."""


def _resolve_seed(flag_value):
    """--seed, else $REXFUSE_SEED, else ``TrainConfig.seed``; a non-negative integer."""
    name, raw = "--seed", flag_value
    if raw is None:
        name, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, TrainConfig.seed)
    try:
        return require_int(name, int(raw), 0)
    except ValueError:
        raise CliError(f"{name} must be a non-negative integer, got {raw!r}") from None


def _embedding_source(args, items):
    """Resolve --item-text / --embeddings into a table plus provider descriptor."""
    if args.item_text:
        source = load_item_text(args.item_text, items)
        table = embed_corpus(source, DEFAULT_EMBED_DIM)
        provider = {"kind": "hashed_bow", "dim": table.dim}
        unknown = "item-text records with unknown ids"
    else:
        source = table = load_embeddings_file(args.embeddings, items)
        provider = {"kind": "file", "path": str(args.embeddings), "dim": table.dim}
        unknown = "embeddings with unknown item ids"
    if source.skipped:
        print(f"warning: skipped {source.skipped} {unknown}", file=sys.stderr)
    return table, provider


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


def _training_inputs(args, text_for=None, alphas=()):
    """The dataset and ``TrainConfig`` of train and sweep: one seed splits and trains.

    Every flag is checked before the ratings are read: the training flags, then, for the
    hybrid model that ``text_for`` names, its text source and its fusion weights ``alphas``.
    """
    seed = _resolve_seed(args.seed)
    fields = {field: getattr(args, flag) for flag, (_, field, _) in TRAINING_FLAGS.items()}
    config = TrainConfig(**fields, seed=seed)
    if text_for and not (args.item_text or args.embeddings):
        raise CliError(f"{text_for} requires --item-text or --embeddings")
    for alpha in alphas:
        fusion_weights(alpha, FUSION_ADDITIVE)
    return _load_dataset(args.data, args.format, seed), config


def _eval_config(args):
    return EvalConfig(top_k=args.k_at, relevance_threshold=args.threshold)


def _check_out_path(flag, path):
    """Refuse, before any work, an output ``path`` that names no file in an existing directory."""
    if path is None:
        return
    if os.path.isdir(path) or not (
        os.path.basename(path) and os.path.isdir(os.path.dirname(path) or os.curdir)
    ):
        raise CliError(f"{flag} {path!r} is not a file in an existing directory")


def _print_reports(args, reports, json_value):
    """The table of ``reports``; with --json, ``json_value`` as one line of canonical JSON."""
    print(render_table(reports))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(json_value, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    _check_out_path("--out", args.out)
    if args.mode == MODE_MF:
        dataset, config = _training_inputs(args)
        model, losses = train_mf(dataset, config)
        provider = None
    else:
        dataset, config = _training_inputs(args, "--mode hybrid", [args.alpha])
        table, provider = _embedding_source(args, dataset.items)
        model, losses = train_hybrid(dataset, table, config, alpha=args.alpha)

    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch {epoch:>3}/{len(losses)}  loss {loss:.6f}")

    bundle = ModelBundle(
        mode=args.mode,
        model=model,
        users=dataset.users,
        items=dataset.items,
        config=config,
        split_seed=config.seed,
        item_train_counts=dataset.item_train_counts(),
        embedding_provider=provider,
    )
    save_bundle(bundle, args.out)
    print(f"saved {args.mode} model to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _check_out_path("--json", args.json)
    eval_config = _eval_config(args)
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
    report = evaluate_model(bundle.model, dataset, eval_config, alpha=alpha)
    _print_reports(args, [report], report.to_dict())
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
    _check_out_path("--json", args.json)
    eval_config = _eval_config(args)
    try:
        alphas = [float(part) for part in args.alphas.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    if not alphas:
        raise CliError("--alphas must name at least one value")

    dataset, config = _training_inputs(args, "sweep", alphas)
    table, _ = _embedding_source(args, dataset.items)
    reports = sweep_alpha(dataset, table, config, alphas, eval_config)
    _print_reports(args, reports, [r.to_dict() for r in reports])
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
    for flag, (kind, field, what) in TRAINING_FLAGS.items():
        default, text = getattr(TrainConfig, field), f"{what} (default %(default)s)"
        parser.add_argument(f"--{flag}", type=kind, default=default, help=text)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"split/training seed (default: ${SEED_ENV_VAR} or {TrainConfig.seed})",
    )


def _add_text_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--item-text", help="item text JSON-lines file (hashed bag-of-words)")
    group.add_argument("--embeddings", help="precomputed embedding JSON-lines file")


def _add_list_flags(parser, written=None):
    """--k-at; with ``written`` (what --json writes), also --threshold and --json."""
    parser.add_argument(
        "--k-at", type=int, default=EvalConfig.top_k, help="list length K (default %(default)s)"
    )
    if written:
        parser.add_argument(
            "--threshold",
            type=float,
            default=EvalConfig.relevance_threshold,
            help="relevance rating cutoff (default %(default)s)",
        )
        parser.add_argument("--json", help=f"also write the {written} as JSON to this path")


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
        "--alpha", type=float, default=0.5, help="fusion weight, hybrid only (default %(default)s)"
    )
    _add_training_flags(p_train)
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model on its test split")
    p_eval.add_argument("--model", required=True, help="model file from train")
    _add_data_flags(p_eval)
    _add_list_flags(p_eval, "report")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rec = sub.add_parser("recommend", help="print top-K items for one user")
    p_rec.add_argument("--model", required=True, help="model file from train")
    p_rec.add_argument("--user", required=True, help="external user id")
    _add_list_flags(p_rec)
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
    _add_list_flags(p_sweep, "reports")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
