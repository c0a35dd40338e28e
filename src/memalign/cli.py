"""Command-line surface tying all pipeline stages together.

Exit codes: 0 success, 1 validation error (bad flags, bad data, rejected
verification), 2 I/O error.  All stochastic behavior derives from the
global seed; JSON reports omit wall-clock timings so identical runs
produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import EngineConfig, default_config_text, load_config
from .corpus import generate_synthetic_corpus, load_corpus, save_corpus
from .decoding import DecodeError
from .graphs import emit_evidence, parse_evidence, parse_full_graph, verify_subset
from .pipeline import (
    ANCHOR_PARADIGM,
    View,
    build_runtime,
    decode_instances,
    evaluate_retrieval,
    module_from_sections,
    module_sections,
    retriever_from_sections,
    retriever_sections,
    train_alignment_pipeline,
    train_retriever_pipeline,
)
from .vocab import Vocabulary

REPORT_KEYS = ("em", "f1", "rouge1", "mem_length", "unique_ratio", "utilization", "n")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's 2
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_coverage(raw: str) -> tuple[float, ...]:
    # argparse reports the message of an ArgumentTypeError, and only a
    # generic one for any other error a type function raises.
    try:
        levels = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coverage list {raw!r}") from exc
    for level in levels:
        if not 0.0 <= level <= 1.0:
            raise argparse.ArgumentTypeError(f"coverage level {level} outside [0, 1]")
    return levels


def build_parser() -> _Parser:
    parser = _Parser(prog="memalign", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="engine config file")
    common.add_argument("--seed", type=int, help="global seed override")
    common.add_argument(
        "--out", type=Path, default=Path("."), help="output directory"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen-data", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=2500)
    p.add_argument("--segment-count", type=int, default=8)
    p.add_argument("--name", default="corpus.jsonl")

    p = sub.add_parser(
        "train-retriever", parents=[common], help="stage 1: distill the retriever"
    )
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--coverage", type=_parse_coverage, default=())

    p = sub.add_parser(
        "train-align", parents=[common], help="stage 2: align one paradigm"
    )
    p.add_argument("--paradigm", required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--coverage", type=_parse_coverage, default=())

    p = sub.add_parser(
        "retrieve", parents=[common], help="single-paradigm evidence retrieval"
    )
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoints", type=Path, help="defaults to --out")
    p.add_argument("--paradigm", default=ANCHOR_PARADIGM)
    p.add_argument("--side", type=int, choices=(0, 1))
    p.add_argument("--coverage-level", type=float, help="needs --side; default 1.0")

    p = sub.add_parser(
        "fuse-retrieve", parents=[common], help="max-pool fused retrieval"
    )
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoints", type=Path)
    p.add_argument(
        "--paradigm",
        action="append",
        help="repeat once per paradigm (default: explicit-sim latent-sim)",
    )
    p.add_argument("--coverage-level", type=float, default=1.0)

    p = sub.add_parser("eval", parents=[common], help="metrics report over a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoints", type=Path)

    p = sub.add_parser(
        "verify", parents=[common], help="subset-check a subgraph against a graph"
    )
    p.add_argument("--full", type=Path, required=True)
    p.add_argument("--sub", type=Path, required=True)

    p = sub.add_parser(
        "default-config", parents=[common], help="print the default config file"
    )
    return parser


def _engine_config(args) -> EngineConfig:
    cfg = load_config(args.config) if args.config else EngineConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        cfg.seed = args.seed
        cfg.align.seed = args.seed
        cfg.distill.seed = args.seed
        if not args.config:
            cfg.paradigms = EngineConfig(seed=args.seed).paradigms
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_serving(args, views: list[View]):
    """The runtime holding the alignment modules of ``views``, the trained
    retriever with its vocabulary, and the corpus."""
    cfg = _engine_config(args)
    runtime = build_runtime(cfg)
    ckpt_dir = args.checkpoints or args.out
    model = retriever_from_sections(load_checkpoint(ckpt_dir / "retriever.ckpt"))
    vocab = Vocabulary.load(ckpt_dir / "vocab.jsonl")
    for paradigm in dict.fromkeys(view.paradigm for view in views):
        if paradigm != ANCHOR_PARADIGM:
            runtime.target_modules[paradigm] = module_from_sections(
                load_checkpoint(ckpt_dir / f"align_{paradigm}.ckpt"), "align"
            )
    return runtime, model, vocab, load_corpus(args.corpus, d_c=cfg.d_c)


def _retrieve(args, views: list[View], name: str) -> int:
    """Decode every corpus instance conditioned on ``views`` into ``name``."""
    runtime, model, vocab, instances = _load_serving(args, views)
    subgraphs = decode_instances(runtime, model, vocab, instances, views)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / name).write_text(
        "".join(
            json.dumps({"id": instance.id, "evidence": emit_evidence(sub)}, sort_keys=True)
            + "\n"
            for instance, sub in zip(instances, subgraphs)
        ),
        encoding="utf-8",
    )
    return len(instances)


# -- subcommands ---------------------------------------------------------


def _cmd_gen_data(args) -> int:
    cfg = _engine_config(args)
    instances = generate_synthetic_corpus(
        args.n, cfg.seed, segment_count=args.segment_count, d_c=cfg.d_c
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / args.name
    save_corpus(instances, path)
    print(f"wrote {len(instances)} instances to {path}")
    return 0


def _cmd_train_retriever(args) -> int:
    cfg = _engine_config(args)
    runtime = build_runtime(cfg)
    instances = load_corpus(args.corpus, d_c=cfg.d_c)
    model, vocab, report = train_retriever_pipeline(
        runtime, instances, coverage_levels=args.coverage
    )
    # The checkpoint is written first: it creates the directory, or is refused.
    save_checkpoint(retriever_sections(model), args.out / "retriever.ckpt")
    vocab.save(args.out / "vocab.jsonl")
    _write_json(
        args.out / "retriever_report.json",
        {
            "epoch_losses": report.epoch_losses,
            "parameter_count": report.parameter_count,
            # One example per instance for the full view and each coverage level.
            "n_examples": len(instances) * (1 + len(args.coverage)),
        },
    )
    print(f"trained retriever ({report.parameter_count} parameters); "
          f"final loss {report.epoch_losses[-1]:.6f}")
    return 0


def _cmd_train_align(args) -> int:
    cfg = _engine_config(args)
    runtime = build_runtime(cfg)
    if args.paradigm == ANCHOR_PARADIGM:
        raise UsageError("the anchored paradigm is frozen and never trained")
    instances = load_corpus(args.corpus, d_c=cfg.d_c)
    n_demos = len(instances) * (1 + 2 * len(args.coverage))
    # The holdout leaves at least one batch to train on, and is 0 rather
    # than a single instance, which has no other instance to compare with.
    spare = n_demos - cfg.align.batch_size
    align_config = dataclasses.replace(
        cfg.align, n_demos=n_demos, holdout=min(cfg.align.holdout, spare if spare >= 2 else 0)
    )
    module, report = train_alignment_pipeline(
        runtime, args.paradigm, instances, align_config, args.coverage
    )
    save_checkpoint(
        module_sections(module, "align"), args.out / f"align_{args.paradigm}.ckpt"
    )
    _write_json(
        args.out / f"align_{args.paradigm}_report.json",
        {
            "epoch_losses": report.epoch_losses,
            "holdout_accuracy": report.holdout_accuracy,
            "holdout_size": report.holdout_size,
            "cosine_gap": report.cosine_gap,
            "anchor_digest_before": report.anchor_digest_before,
            "anchor_digest_after": report.anchor_digest_after,
        },
    )
    print(
        f"aligned {args.paradigm}: holdout accuracy "
        f"{report.holdout_accuracy:.3f}, cosine gap {report.cosine_gap:.3f}"
    )
    return 0


def _cmd_retrieve(args) -> int:
    level = args.coverage_level
    if level is not None and args.side is None:
        raise UsageError("--coverage-level needs --side")
    view = View(args.paradigm, args.side, 1.0 if level is None else level)
    count = _retrieve(args, [view], "retrieved.jsonl")
    print(f"retrieved evidence for {count} instances")
    return 0


def _cmd_fuse_retrieve(args) -> int:
    paradigms = tuple(args.paradigm or ("explicit-sim", "latent-sim"))
    if len(paradigms) < 2:
        raise UsageError("fuse-retrieve needs at least two --paradigm flags")
    # Paradigms alternate between the two segment sides.
    views = [View(p, side % 2, args.coverage_level) for side, p in enumerate(paradigms)]
    count = _retrieve(args, views, "fused_retrieved.jsonl")
    print(f"fused retrieval over {paradigms} for {count} instances")
    return 0


def _cmd_eval(args) -> int:
    runtime, model, vocab, instances = _load_serving(args, [])
    full = evaluate_retrieval(runtime, model, vocab, instances)
    report = {key: full[key] for key in REPORT_KEYS}
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "eval_report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"Unique Ratio: {100.0 * report['unique_ratio']:.1f}%")
    return 0


def _cmd_verify(args) -> int:
    full = parse_full_graph(args.full.read_text(encoding="utf-8"))
    sub = parse_evidence(args.sub.read_text(encoding="utf-8"))
    report = verify_subset(sub, full)
    if report.accepted:
        print("ACCEPTED")
        return 0
    print("REJECTED")
    for violation in report.violations:
        print(f"  {violation.kind}: {violation.element}")
    return 1


def _cmd_default_config(args) -> int:
    print(default_config_text(), end="")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-retriever": _cmd_train_retriever,
    "train-align": _cmd_train_align,
    "retrieve": _cmd_retrieve,
    "fuse-retrieve": _cmd_fuse_retrieve,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "default-config": _cmd_default_config,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(parser.format_usage())
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
