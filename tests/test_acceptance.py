"""Acceptance suite: one test per release criterion, at stated tolerances.

Criteria 3, 6, 8, and 10 train real models and are marked ``slow``; the
whole suite is still expected to run in well under fifteen minutes on a
single core.
"""
import dataclasses
import json
import time

import numpy as np
import pytest

from memalign.cli import main
from memalign.config import EngineConfig
from memalign.contrastive import AlignConfig, infonce_loss
from memalign.corpus import corpus_vocabulary, generate_synthetic_corpus
from memalign.decoding import generate_subgraph
from memalign.graphs import (
    emit,
    parse_full_graph,
    verify_subset,
)
from memalign.metrics import (
    AnswerPair,
    MemoryRecord,
    exact_match,
    mem_length,
    memory_utilization,
    rouge1,
    token_f1,
    unique_ratio,
)
from memalign.pipeline import (
    View,
    build_runtime,
    evaluate_retrieval,
    prepare_fused_examples,
    prepare_retriever_examples,
    reconstruction_rate,
    train_alignment_pipeline,
    train_retriever_pipeline,
)
from memalign.retriever import (
    DistillConfig,
    distill_loss,
    init_retriever,
    sequence_backward,
    sequence_logits,
)
from memalign.tokenization import delinearize, graph_surface_words, linearize_evidence
from memalign.unified import align_forward, align_gradients, init_alignment_module
from memalign.vocab import build_vocabulary
from util import (
    central_difference,
    mutate_subgraph,
    random_graph,
    random_subgraph,
    relative_error,
    softmax,
)


# -- criterion 1: closed-form InfoNCE ------------------------------------


def test_criterion_1_infonce_closed_forms():
    h = np.array([1.0, 0.0])
    # sims (1, 0), tau = 1: loss = log(1 + e^-1)
    loss, _ = infonce_loss(h, h.copy(), np.array([[0.0, 1.0]]), tau=1.0)
    assert loss == pytest.approx(0.3132616875182229, abs=1e-6)
    # dominant positive at small temperature: loss below 1e-9
    negs = np.array([[-1.0, 0.0], [-1.0, 1e-9]])
    loss, _ = infonce_loss(h, h.copy(), negs, tau=0.02)
    assert 0.0 <= loss < 1e-9
    # all similarities equal: loss = log(1 + C)
    for count in (1, 3, 16):
        loss, _ = infonce_loss(h, h.copy(), np.tile(h, (count, 1)), tau=0.7)
        assert loss == pytest.approx(np.log(1.0 + count), abs=1e-6)


# -- criterion 2: gradient suite vs central finite differences -----------


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2)

    # alignment-module parameter gradients, 50 instances
    for _ in range(50):
        d_in, d_h, d_out = (int(rng.integers(2, 5)) for _ in range(3))
        module = init_alignment_module(d_in, d_h, d_out, int(rng.integers(1 << 30)))
        x = rng.standard_normal(d_in)
        upstream = rng.standard_normal(d_out)
        grads = align_gradients(module, x, upstream)
        for name, param in module.parameters().items():
            numeric = central_difference(
                lambda _: float(upstream @ align_forward(module, x)), param
            )
            assert relative_error(grads[name], numeric) < 1e-4

    # InfoNCE gradient with respect to the positive target vector
    for _ in range(50):
        d = int(rng.integers(2, 6))
        h_a = rng.standard_normal(d)
        h_t = rng.standard_normal(d)
        negs = rng.standard_normal((int(rng.integers(1, 5)), d))
        tau = float(rng.uniform(0.05, 1.0))
        _, grad = infonce_loss(h_a, h_t, negs, tau)
        numeric = central_difference(
            lambda x: infonce_loss(h_a, x, negs, tau)[0], h_t.copy()
        )
        assert relative_error(grad, numeric) < 1e-4

    # distillation objective gradient with respect to student logits
    for _ in range(50):
        steps = int(rng.integers(2, 5))
        v = int(rng.integers(4, 8))
        teacher = rng.random((steps, v)) + 0.1
        teacher /= teacher.sum(axis=1, keepdims=True)
        logits = rng.standard_normal((steps, v))
        cfg = DistillConfig(
            kl_weight=float(rng.uniform(0.1, 1.0)),
            kl_temperature=float(rng.uniform(0.5, 3.0)),
            ce_weight=float(rng.uniform(0.1, 1.0)),
        )
        _, d_logits = distill_loss(teacher, logits, cfg)
        numeric = central_difference(
            lambda x: distill_loss(teacher, x, cfg)[0], logits.copy()
        )
        assert relative_error(d_logits, numeric) < 1e-4

    # full backpropagation through time under the distillation objective
    cfg = DistillConfig()
    for trial in range(6):
        v, d_m, d_q, d_s = 10, 4, 2, 2
        model = init_retriever(v, d_m, d_q, d_s, seed=trial)
        tokens = [0] + [int(t) for t in rng.integers(0, v, size=7)]
        q = rng.standard_normal(d_q)
        h = rng.standard_normal(d_s)
        teacher = rng.random((len(tokens) - 1, v)) + 0.1
        teacher /= teacher.sum(axis=1, keepdims=True)
        cache = sequence_logits(model, tokens, q, h)
        _, d_logits = distill_loss(teacher, cache.logits, cfg)
        grads = sequence_backward(model, cache, d_logits)
        for name, param in model.parameters().items():
            numeric = central_difference(
                lambda _: distill_loss(
                    teacher, sequence_logits(model, tokens, q, h).logits, cfg
                )[0],
                param,
            )
            assert relative_error(grads[name], numeric) < 1e-4

    assert time.perf_counter() - started < 30.0


# -- criterion 3: fast-alignment analog ----------------------------------


@pytest.mark.slow
def test_criterion_3_fast_alignment():
    started = time.perf_counter()
    instances = generate_synthetic_corpus(2500, 42, content_noise=1.0)
    runtime = build_runtime(EngineConfig())
    # defaults: B=32, tau=0.07, lr=1e-4, 20 epochs, mse_weight=0.1,
    # 500-instance holdout from the 2,500-demonstration pool
    config = AlignConfig()
    assert (config.batch_size, config.tau, config.epochs) == (32, 0.07, 20)
    assert (config.learning_rate, config.mse_weight) == (1e-4, 0.1)
    assert (config.n_demos, config.holdout) == (2500, 500)
    _, report = train_alignment_pipeline(runtime, "parametric-sim", instances, config)
    assert report.holdout_size == 500
    assert report.holdout_accuracy >= 0.95
    assert report.cosine_gap >= 0.5
    assert report.anchor_digest_before == report.anchor_digest_after
    assert time.perf_counter() - started < 300.0


# -- criterion 4: subset-verification soundness --------------------------


def test_criterion_4_mutation_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 1000:
        full = random_graph(rng, min_nodes=2)
        sub = random_subgraph(full, rng)
        if not sub.graph.nodes:
            continue
        assert verify_subset(sub, full).accepted
        mutant, expected_kind = mutate_subgraph(sub, full, rng)
        report = verify_subset(mutant, full)
        assert not report.accepted
        assert expected_kind in {v.kind for v in report.violations}
        checked += 1
    assert time.perf_counter() - started < 10.0


# -- criterion 5: serialization round trips ------------------------------


def test_criterion_5_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = random_graph(rng)
        assert parse_full_graph(emit(g)) == g
    for _ in range(1000):
        sub = random_subgraph(random_graph(rng, min_nodes=1), rng)
        vocab = build_vocabulary(graph_surface_words(sub.graph, sub.confidence))
        assert delinearize(linearize_evidence(sub, vocab), vocab) == sub
    assert time.perf_counter() - started < 10.0


# -- criterion 6: distillation analog ------------------------------------


@pytest.mark.slow
def test_criterion_6_distillation():
    started = time.perf_counter()
    instances = generate_synthetic_corpus(600, 42)
    train, held = instances[:500], instances[500:]
    runtime = build_runtime(EngineConfig())
    vocab = corpus_vocabulary(instances)
    assert len(vocab) <= 200
    config = DistillConfig(
        kl_weight=0.5,
        kl_temperature=2.0,
        ce_weight=1.0,
        learning_rate=1e-2,
        epochs=30,
        batch_size=8,
    )
    model, vocab, _ = train_retriever_pipeline(
        runtime, train, vocab=vocab, distill_config=config
    )
    train_rate = reconstruction_rate(
        runtime, model, vocab, prepare_retriever_examples(runtime, train)
    )
    held_rate = reconstruction_rate(
        runtime, model, vocab, prepare_retriever_examples(runtime, held)
    )
    assert train_rate >= 0.90
    assert held_rate >= 0.70
    assert time.perf_counter() - started < 600.0

    # KL term vanishes when the student matches the teacher
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((5, 9))
    teacher = softmax(logits / config.kl_temperature, axis=1)
    kl_only = dataclasses.replace(config, ce_weight=0.0)
    loss, _ = distill_loss(teacher, logits, kl_only)
    assert abs(loss) <= 1e-9


# -- criterion 7: constraint soundness -----------------------------------


def test_criterion_7_constrained_decoding_always_verifies():
    rng = np.random.default_rng(7)
    for trial in range(500):
        full = random_graph(rng, min_nodes=1)
        words = list(graph_surface_words(full))
        words.append("0.75")
        vocab = build_vocabulary(words)
        model = init_retriever(len(vocab), 8, 4, 3, seed=trial)
        sub = generate_subgraph(
            model,
            full,
            rng.standard_normal(4),
            rng.standard_normal(3),
            vocab,
        )
        assert verify_subset(sub, full).accepted


# -- criterion 8: fusion monotonicity ------------------------------------


@pytest.mark.slow
def test_criterion_8_fusion_monotonicity():
    instances = generate_synthetic_corpus(200, 42, content_noise=1.0)
    runtime = build_runtime(EngineConfig())
    paradigms = ("explicit-sim", "latent-sim")
    levels = (0.1, 0.5, 1.0)
    align_config = AlignConfig(n_demos=len(instances) * (1 + 2 * len(levels)), holdout=0)
    for paradigm in paradigms:
        train_alignment_pipeline(
            runtime, paradigm, instances, align_config, coverage_levels=levels
        )

    vocab = corpus_vocabulary(instances)
    examples = prepare_fused_examples(runtime, instances, paradigms, levels)
    config = DistillConfig(learning_rate=1e-2, epochs=20, batch_size=8)
    model, vocab, _ = train_retriever_pipeline(
        runtime, instances, vocab=vocab, distill_config=config, examples=examples
    )

    utilizations = [
        evaluate_retrieval(
            runtime,
            model,
            vocab,
            instances,
            [View(paradigm, side, level) for side, paradigm in enumerate(paradigms)],
        )["utilization"]
        for level in levels
    ]
    assert utilizations[0] <= utilizations[1] <= utilizations[2]
    best_single = max(
        evaluate_retrieval(
            runtime, model, vocab, instances, [View(paradigm, side)]
        )["utilization"]
        for side, paradigm in enumerate(paradigms)
    )
    assert utilizations[2] >= best_single


# -- criterion 9: metric oracles -----------------------------------------

METRIC_TABLE = [
    # (prediction, golds, em, f1, rouge1)
    ("amber harbor", ("amber harbor",), 1, 1.0, 1.0),
    ("The Amber Harbor", ("amber harbor",), 1, 1.0, 1.0),
    ("harbor", ("amber harbor",), 0, 2 / 3, 2 / 3),
    ("amber harbor lighthouse", ("amber harbor",), 0, 0.8, 0.8),
    ("quiet mill", ("amber harbor",), 0, 0.0, 0.0),
    ("", ("amber harbor",), 0, 0.0, 0.0),
    ("harbor harbor", ("harbor",), 0, 2 / 3, 2 / 3),
    ("amber harbor", ("quiet mill", "amber harbor"), 1, 1.0, 1.0),
    ("mill quiet", ("quiet mill",), 0, 1.0, 1.0),
    ("an amber harbor.", ("Amber, harbor",), 1, 1.0, 1.0),
]


def test_criterion_9_metric_oracles():
    for pred, golds, em, f1, r1 in METRIC_TABLE:
        pair = AnswerPair(pred, golds)
        assert exact_match(pair) == em
        assert token_f1(pair) == pytest.approx(f1)
        assert rouge1(pair) == pytest.approx(r1)

    records = [
        MemoryRecord("abcd", "x", True),
        MemoryRecord("ab", "x", True),
    ]
    assert mem_length(records) == pytest.approx(3.0)
    records = [
        MemoryRecord("a b a", "x", True),
        MemoryRecord("c c", "x", True),
    ]
    assert unique_ratio(records) == pytest.approx((2 / 3 + 1 / 2) / 2)
    records = [
        MemoryRecord("the amber harbor shines", "amber harbor", True),
        MemoryRecord("amber light on the harbor", "amber harbor", True),
        MemoryRecord("ignored", "amber", False),
    ]
    assert memory_utilization(records) == pytest.approx(0.5)

    rng = np.random.default_rng(9)
    words = ["amber", "harbor", "mill", "quiet", "the", "a", "spire", "basin"]
    for _ in range(10_000):
        pred = " ".join(rng.choice(words, size=int(rng.integers(0, 5))))
        gold = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
        pair = AnswerPair(pred, (gold,))
        if exact_match(pair) == 1:
            assert token_f1(pair) == pytest.approx(1.0)


# -- criterion 10: determinism -------------------------------------------


def _run_pipeline(out, cfg, corpus):
    assert main([
        "train-retriever", "--corpus", str(corpus), "--config", str(cfg),
        "--out", str(out),
    ]) == 0
    assert main([
        "train-align", "--paradigm", "explicit-sim", "--corpus", str(corpus),
        "--config", str(cfg), "--out", str(out),
    ]) == 0
    assert main([
        "retrieve", "--corpus", str(corpus), "--config", str(cfg),
        "--out", str(out),
    ]) == 0
    assert main([
        "eval", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out),
    ]) == 0


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "[engine]\nd_m = 64\nd_h = 128\n\n"
        "[alignment]\n"
        "Negative sample size = 8\nBatch size = 8\nEpochs = 3\nHoldout = 5\n\n"
        "[distillation]\n"
        "Epochs = 4\nLearning rate = 0.005\nPer-device batch size = 8\n"
    )
    corpora = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([
            "gen-data", "--n", "25", "--config", str(cfg), "--out", str(out),
        ]) == 0
        corpora.append(out / "corpus.jsonl")
    assert corpora[0].read_bytes() == corpora[1].read_bytes()

    for run, corpus in zip(("a", "b"), corpora):
        _run_pipeline(tmp_path / run, cfg, corpus)

    artifacts = (
        "retriever.ckpt",
        "vocab.jsonl",
        "retriever_report.json",
        "align_explicit-sim.ckpt",
        "align_explicit-sim_report.json",
        "retrieved.jsonl",
        "eval_report.json",
    )
    for name in artifacts:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"artifact {name} differs between identical runs"
    # reports are valid JSON and carry no wall-clock fields
    report = json.loads((tmp_path / "a" / "retriever_report.json").read_text())
    assert "wall_seconds" not in report
