"""Engine runtime glue: example preparation, evaluation, checkpoint packing."""
import dataclasses

import numpy as np
import pytest

from memalign import pipeline
from memalign.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from memalign.config import EngineConfig
from memalign.contrastive import AlignConfig
from memalign.corpus import (
    corpus_vocabulary,
    coverage_mask,
    generate_synthetic_corpus,
    instance_content,
)
from memalign.decoding import DECODE_WINDOW
from memalign.fusion import fuse_states
from memalign.metrics import MetricsError
from memalign.pipeline import (
    ANCHOR_PARADIGM,
    View,
    build_runtime,
    condition,
    evaluate_retrieval,
    module_from_sections,
    module_sections,
    prepare_retriever_examples,
    reconstruction_rate,
    retriever_from_sections,
    retriever_sections,
    train_alignment_pipeline,
)
from memalign.retriever import init_retriever
from memalign.unified import align_forward, init_alignment_module
from util import count_index_builds


@pytest.fixture(scope="module")
def runtime():
    return build_runtime(EngineConfig())


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(8, 13)


def test_runtime_registers_configured_paradigms(runtime):
    assert set(runtime.registry.names()) == {
        "anchor-graph",
        "explicit-sim",
        "parametric-sim",
        "latent-sim",
    }


def test_runtime_requires_anchor_paradigm():
    cfg = EngineConfig()
    cfg.paradigms = [p for p in cfg.paradigms if p.name != "anchor-graph"]
    with pytest.raises(ValueError, match="anchor-graph"):
        build_runtime(cfg)


def test_anchor_vector_is_deterministic(runtime, corpus):
    v1 = condition(runtime, corpus[:1], [View(ANCHOR_PARADIGM)])[0]
    v2 = condition(runtime, corpus[:1], [View(ANCHOR_PARADIGM)])[0]
    np.testing.assert_array_equal(v1, v2)
    assert v1.shape == (runtime.config.d_s,)


def test_condition_blocks_equal_one_instance_fusion():
    runtime = build_runtime(EngineConfig(d_h=32))
    for seed, paradigm in enumerate(("explicit-sim", "latent-sim")):
        d_t = runtime.registry.get(paradigm).d_t
        runtime.target_modules[paradigm] = init_alignment_module(d_t, 32, 64, seed)
    corpus = generate_synthetic_corpus(2 * DECODE_WINDOW + 5, 21)
    views = [View("explicit-sim", 0, 0.5), View("latent-sim", 1, 0.5)]
    batch = condition(runtime, corpus, views)
    for row, instance in zip(batch, corpus):
        states = [
            runtime.registry.encode_state(
                v.paradigm, instance_content(instance), v.mask(instance.segment_count)
            )
            for v in views
        ]
        assert row.tobytes() == fuse_states(states, runtime.target_modules).values.tobytes()


@pytest.mark.parametrize("segment_counts", [(4, 8), (8, 4)])
def test_alignment_masks_follow_each_instance(monkeypatch, segment_counts):
    # Each instance's states are masked by its own segment count, in
    # either order of a mixed corpus.
    runtime = build_runtime(EngineConfig(d_h=16))
    corpus = [
        instance
        for count in segment_counts
        for instance in generate_synthetic_corpus(3, count, segment_count=count)
    ]
    captured = {}
    train = pipeline.train_alignment

    def spy(anchor, init, anchor_raw, target_raw, config):
        captured.update(anchor_raw=anchor_raw, target_raw=target_raw)
        return train(anchor, init, anchor_raw, target_raw, config)

    monkeypatch.setattr(pipeline, "train_alignment", spy)
    levels = (0.25, 0.5)
    config = AlignConfig(n_demos=30, negatives=2, batch_size=4, epochs=1, holdout=0)
    train_alignment_pipeline(runtime, "explicit-sim", corpus, config, levels)
    sides = [(None, None)] + [(side, level) for level in levels for side in (0, 1)]
    rows = [(side, level, instance) for side, level in sides for instance in corpus]
    for key, paradigm in (("anchor_raw", ANCHOR_PARADIGM), ("target_raw", "explicit-sim")):
        assert len(captured[key]) == len(rows)
        for got, (side, level, instance) in zip(captured[key], rows):
            n = instance.segment_count
            mask = None if side is None else coverage_mask(side, level, n)
            expected = runtime.registry.encode_state(paradigm, instance_content(instance), mask)
            assert got.tobytes() == expected.raw.tobytes()


def test_prepare_examples_full_and_coverage(runtime, corpus):
    plain = prepare_retriever_examples(runtime, corpus)
    assert len(plain) == len(corpus)
    augmented = prepare_retriever_examples(runtime, corpus, coverage_levels=(0.5,))
    assert len(augmented) == 2 * len(corpus)
    cov = [e for e in augmented if "#cov" in e.id]
    assert len(cov) == len(corpus)
    for example in cov:
        # masked-label gold is a subset of the full gold chain
        assert len(example.gold_subgraph.graph.nodes) <= len(
            example.full_graph.nodes
        )


def test_evaluate_retrieval_report_keys(runtime, corpus):
    vocab = corpus_vocabulary(corpus)
    model = init_retriever(
        len(vocab), 16, runtime.config.d_q, runtime.config.d_s, seed=0
    )
    report = evaluate_retrieval(runtime, model, vocab, corpus)
    for key in ("em", "f1", "rouge1", "mem_length", "unique_ratio", "utilization", "n"):
        assert key in report
    assert report["n"] == len(corpus)
    assert 0.0 <= report["utilization"] <= 1.0


def test_reconstruction_indexes_each_instance_graph_once(monkeypatch, runtime, corpus):
    # Each instance's full-context and coverage examples come back to
    # back, so the decodes of one graph share one index.
    vocab = corpus_vocabulary(corpus)
    model = init_retriever(
        len(vocab), 16, runtime.config.d_q, runtime.config.d_s, seed=0
    )
    examples = prepare_retriever_examples(runtime, corpus, (0.5,))
    built = count_index_builds(monkeypatch)
    reconstruction_rate(runtime, model, vocab, examples)
    assert len(built) == len(corpus)


def test_no_instances_are_refused(runtime, corpus):
    vocab = corpus_vocabulary(corpus)
    model = init_retriever(len(vocab), 16, runtime.config.d_q, runtime.config.d_s, seed=0)
    with pytest.raises(MetricsError, match="at least one instance"):
        evaluate_retrieval(runtime, model, vocab, [])
    with pytest.raises(MetricsError, match="at least one example"):
        reconstruction_rate(runtime, model, vocab, [])


def test_module_checkpoint_round_trip(tmp_path, runtime, corpus):
    module = init_alignment_module(6, 5, 4, seed=1)
    path = tmp_path / "align.ckpt"
    save_checkpoint(module_sections(module, "align"), path)
    loaded = module_from_sections(load_checkpoint(path), "align")
    x = np.random.default_rng(0).standard_normal(6)
    np.testing.assert_allclose(
        align_forward(loaded, x),
        align_forward(module, x),
        atol=1e-6,  # float32 storage
    )


def test_retriever_checkpoint_round_trip(tmp_path):
    model = init_retriever(20, 8, 4, 3, seed=2)
    path = tmp_path / "retriever.ckpt"
    save_checkpoint(retriever_sections(model), path)
    loaded = retriever_from_sections(load_checkpoint(path))
    q = np.zeros(4)
    h = np.zeros(3)
    np.testing.assert_allclose(
        loaded.init_states(loaded.conditioning(q, h)[None]),
        model.init_states(model.conditioning(q, h)[None]),
        atol=1e-6,
    )


def test_missing_checkpoint_sections_reported(tmp_path):
    path = tmp_path / "broken.ckpt"
    save_checkpoint({"align/layer1_weight": np.zeros((2, 2))}, path)
    with pytest.raises(CheckpointError, match="missing checkpoint section"):
        module_from_sections(load_checkpoint(path), "align")
