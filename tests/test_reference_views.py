"""Conditioning vectors against a committed reference.

``data/reference_views.json`` holds, for a seeded untrained setup, the
sha256 of each view's conditioning vectors and decoded evidence, of the
prepared retriever examples, of one alignment run and of the CLI outputs.
It was recorded before every view went through ``pipeline.condition``,
when each caller built its vectors by hand.  The views decode to
different evidence, so a swapped conditioning vector shows; every digest
must stay byte for byte.
"""
import hashlib
import json
from pathlib import Path

import pytest

from memalign.checkpoint import save_checkpoint
from memalign.cli import main
from memalign.config import EngineConfig
from memalign.contrastive import AlignConfig
from memalign.corpus import corpus_vocabulary, generate_synthetic_corpus, save_corpus
from memalign.graphs import emit_evidence
from memalign.pipeline import (
    ANCHOR_PARADIGM,
    View,
    build_runtime,
    condition,
    decode_instances,
    evaluate_retrieval,
    module_sections,
    prepare_fused_examples,
    prepare_retriever_examples,
    retriever_sections,
    train_alignment_pipeline,
)
from memalign.retriever import init_retriever
from memalign.unified import init_alignment_module

pytestmark = pytest.mark.reference

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "reference_views.json").read_text()
)
PAIR = ("explicit-sim", "latent-sim")
PARADIGMS = (*PAIR, "parametric-sim")
VIEWS = {
    "anchor": (View(ANCHOR_PARADIGM),),
    "anchor-side0-0.5": (View(ANCHOR_PARADIGM, 0, 0.5),),
    "explicit-sim-side0-0.5": (View("explicit-sim", 0, 0.5),),
    "latent-sim-side1-1.0": (View("latent-sim", 1, 1.0),),
    "fused-0.5": tuple(View(p, side, 0.5) for side, p in enumerate(PAIR)),
    "fused-1.0": tuple(View(p, side, 1.0) for side, p in enumerate(PAIR)),
    "fuse-retrieve-3-0.5": tuple(
        View(p, side % 2, 0.5) for side, p in enumerate(PARADIGMS)
    ),
}
CLI_RUNS = {
    "retrieve": ["retrieve"],
    "retrieve-anchor-side0-0.5": ["retrieve", "--side", "0", "--coverage-level", "0.5"],
    "retrieve-explicit-sim-side0-0.5": [
        "retrieve", "--paradigm", "explicit-sim", "--side", "0", "--coverage-level", "0.5",
    ],
    "retrieve-latent-sim": ["retrieve", "--paradigm", "latent-sim"],
    "fuse-retrieve-0.5": ["fuse-retrieve", "--coverage-level", "0.5"],
    "fuse-retrieve-3-0.5": [
        "fuse-retrieve", "--coverage-level", "0.5",
        *(flag for p in PARADIGMS for flag in ("--paradigm", p)),
    ],
    "eval": ["eval"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines_digest(subgraphs) -> str:
    return _sha("".join(emit_evidence(s) + "\n" for s in subgraphs).encode())


@pytest.fixture(scope="module")
def setup():
    runtime = build_runtime(EngineConfig(d_h=128))
    corpus = generate_synthetic_corpus(25, 5)
    vocab = corpus_vocabulary(corpus)
    cfg = runtime.config
    model = init_retriever(len(vocab), 64, cfg.d_q, cfg.d_s, 0)
    for seed, paradigm in enumerate(PARADIGMS, start=1):
        d_t = runtime.registry.get(paradigm).d_t
        runtime.target_modules[paradigm] = init_alignment_module(
            d_t, cfg.d_h, cfg.d_s, seed
        )
    return runtime, corpus, vocab, model


def test_reference_views_decode_differently():
    assert len({v["evidence"] for v in REFERENCE["views"].values()}) == len(VIEWS)


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_matches_reference(setup, name):
    runtime, corpus, vocab, model = setup
    h = condition(runtime, corpus, VIEWS[name])
    subgraphs = decode_instances(runtime, model, vocab, corpus, VIEWS[name])
    assert {"h": _sha(h.tobytes()), "evidence": _lines_digest(subgraphs)} == (
        REFERENCE["views"][name]
    )


def test_evaluation_matches_reference(setup):
    runtime, corpus, vocab, model = setup
    assert evaluate_retrieval(runtime, model, vocab, corpus) == REFERENCE["evaluate_retrieval"]
    for name, utilization in REFERENCE["utilization"].items():
        report = evaluate_retrieval(runtime, model, vocab, corpus, VIEWS[name])
        assert report["utilization"] == utilization, name


def test_examples_match_reference(setup):
    runtime, corpus, _, _ = setup
    prepared = {
        "retriever": prepare_retriever_examples(runtime, corpus, (0.5,)),
        "fused": prepare_fused_examples(runtime, corpus, PAIR, (0.5, 1.0)),
    }
    for name, examples in prepared.items():
        assert {
            "ids": [e.id for e in examples],
            "h": _sha(b"".join(e.h.tobytes() for e in examples)),
            "gold": _lines_digest(e.gold_subgraph for e in examples),
        } == REFERENCE["examples"][name], name


def test_alignment_run_matches_reference(setup):
    _, corpus, _, _ = setup
    config = AlignConfig(n_demos=75, negatives=8, batch_size=8, epochs=2, holdout=5, seed=3)
    module, _ = train_alignment_pipeline(
        build_runtime(EngineConfig(d_h=128)), "explicit-sim", corpus, config, (0.5,)
    )
    assert module.digest() == REFERENCE["align_digest"]


def test_cli_outputs_match_reference(setup, tmp_path):
    runtime, corpus, vocab, model = setup
    (tmp_path / "engine.cfg").write_text("[engine]\nd_h = 128\n")
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    save_checkpoint(retriever_sections(model), tmp_path / "retriever.ckpt")
    vocab.save(tmp_path / "vocab.jsonl")
    for p in PARADIGMS:
        save_checkpoint(
            module_sections(runtime.target_modules[p], "align"), tmp_path / f"align_{p}.ckpt"
        )
    common = [
        "--corpus", str(tmp_path / "corpus.jsonl"), "--config", str(tmp_path / "engine.cfg"),
        "--checkpoints", str(tmp_path),
    ]
    for name, argv in CLI_RUNS.items():
        out = tmp_path / name
        assert main(argv + common + ["--out", str(out)]) == 0
        assert {f.name: _sha(f.read_bytes()) for f in out.iterdir()} == REFERENCE["cli"][name]
