"""End-to-end glue: engine runtime, training data preparation, retrieval
evaluation, and checkpoint packing for modules and retriever models."""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checkpoint import CheckpointError
from .config import EngineConfig
from .contrastive import AlignConfig, train_alignment
from .corpus import (
    CorpusInstance,
    corpus_vocabulary,
    coverage_mask,
    visible_gold,
)
from .decoding import DECODE_WINDOW, decode_many
from .graphs import EvidenceSubgraph, emit_evidence
from .metrics import (
    AnswerPair,
    MemoryRecord,
    MetricsError,
    exact_match,
    mem_length,
    memory_utilization,
    rouge1,
    token_f1,
    unique_ratio,
)
from .retriever import (
    DistillConfig,
    QueryEmbedder,
    RetrieverExample,
    RetrieverModel,
    init_retriever,
    train_retriever,
)
from .seeding import subseed
from .unified import (
    AlignmentModule,
    ParadigmRegistry,
    align_forward,
    init_alignment_module,
    mask_segments,
)
from .vocab import Vocabulary

ANCHOR_PARADIGM = "anchor-graph"


@dataclass
class Runtime:
    """Deterministic engine state derived from an :class:`EngineConfig`."""

    config: EngineConfig
    registry: ParadigmRegistry
    embedder: QueryEmbedder
    anchor_module: AlignmentModule
    target_modules: dict[str, AlignmentModule] = field(default_factory=dict)


def build_runtime(config: EngineConfig) -> Runtime:
    registry = ParadigmRegistry(config.d_c)
    for spec in config.paradigms:
        registry.register_paradigm(spec.name, spec.d_t, spec.encoder_seed)
    if ANCHOR_PARADIGM not in registry:
        raise ValueError(f"configuration must register the {ANCHOR_PARADIGM!r} paradigm")
    embedder = QueryEmbedder(config.d_q, seed=subseed(config.seed, "query-embedder"))
    anchor_d_t = registry.get(ANCHOR_PARADIGM).d_t
    # The anchored module is a fixed seeded map; the retriever learns to
    # consume whatever representation it produces.
    anchor_module = init_alignment_module(
        anchor_d_t, config.d_s, config.d_s, subseed(config.seed, "anchor-align")
    )
    return Runtime(config, registry, embedder, anchor_module)


class View(NamedTuple):
    """One paradigm's view of an instance: the segments ``coverage_mask``
    gives ``side`` at ``coverage``, or every segment when ``side`` is None."""

    paradigm: str
    side: int | None = None
    coverage: float = 1.0

    def mask(self, segment_count: int) -> set[int] | None:
        if self.side is None:
            return None
        return coverage_mask(self.side, self.coverage, segment_count)


def encode(runtime: Runtime, instances: list[CorpusInstance], view: View) -> np.ndarray:
    """The paradigm states (N, d_t) of ``view``, each instance masked by its
    own segment count."""
    rows = np.array([instance.content_vector for instance in instances], dtype=np.float64)
    if view.side is not None:
        rows = np.stack(
            [
                mask_segments(row, instance.segment_count, view.mask(instance.segment_count))
                for row, instance in zip(rows, instances)
            ]
        )
    return runtime.registry.encode_rows(view.paradigm, rows)


def condition(
    runtime: Runtime, instances: list[CorpusInstance], views: Sequence[View]
) -> np.ndarray:
    """Conditioning vectors (N, d_s): every view aligned into the unified
    space by its paradigm's module and max-pooled across the views.

    Each state goes through ``align_forward`` as a one-row stack, one gemv
    per row with the bits of a one-state call, ``DECODE_WINDOW`` instances
    at a time so the hidden activations stay small.
    """
    out = np.empty((len(instances), runtime.config.d_s))
    for start in range(0, len(instances), DECODE_WINDOW):
        block = instances[start : start + DECODE_WINDOW]
        aligned = [
            align_forward(
                runtime.anchor_module
                if view.paradigm == ANCHOR_PARADIGM
                else runtime.target_modules[view.paradigm],
                encode(runtime, block, view)[:, None, :],
            )[:, 0]
            for view in views
        ]
        out[start : start + len(block)] = np.max(aligned, axis=0)
    return out


def prepare_examples(
    runtime: Runtime,
    instances: list[CorpusInstance],
    view_sets: list[tuple[str, tuple[View, ...]]],
) -> list[RetrieverExample]:
    """One supervision pair per instance and ``(suffix, views)`` set, instance
    by instance: conditioned on the pooled views, labeled with the gold
    chain restricted to the segments they show, and identified by the
    instance id plus the suffix."""
    vectors = [condition(runtime, instances, views) for _, views in view_sets]
    examples: list[RetrieverExample] = []
    for row, instance in enumerate(instances):
        full_graph = instance.full_graph()
        for (suffix, views), h in zip(view_sets, vectors):
            masks = [view.mask(instance.segment_count) for view in views]
            examples.append(
                RetrieverExample(
                    id=instance.id + suffix,
                    query=instance.query,
                    full_graph=full_graph,
                    gold_subgraph=(
                        instance.gold_subgraph()
                        if None in masks
                        else visible_gold(instance, set().union(*masks))
                    ),
                    h=h[row],
                )
            )
    return examples


def prepare_retriever_examples(
    runtime: Runtime,
    instances: list[CorpusInstance],
    coverage_levels: tuple[float, ...] = (),
) -> list[RetrieverExample]:
    """Supervision pairs for the retriever.

    Each instance yields a full-context example.  For every requested
    coverage level, two more variants are added: a side-split max-fused
    conditioning (both paradigm halves at that coverage, max-pooled in
    the unified space) labeled with the visible part of the gold chain,
    which is what makes partial and fused memories in-distribution.
    """
    return prepare_examples(
        runtime,
        instances,
        [("", (View(ANCHOR_PARADIGM),))]
        + [
            (f"#cov{level:g}", tuple(View(ANCHOR_PARADIGM, side, level) for side in (0, 1)))
            for level in coverage_levels
        ],
    )


def prepare_fused_examples(
    runtime: Runtime,
    instances: list[CorpusInstance],
    paradigms: tuple[str, str],
    coverage_levels: tuple[float, ...],
) -> list[RetrieverExample]:
    """Supervision pairs conditioned on fused target-paradigm vectors.

    Requires trained alignment modules for both paradigms.  For each
    coverage level the two paradigm sides are masked to that level,
    aligned, max-pooled, and labeled with the visible part of the gold
    chain; single-side variants cover one-paradigm retrieval.
    """
    view_sets = [
        (f"#fused{level:g}", tuple(View(p, side, level) for side, p in enumerate(paradigms)))
        for level in coverage_levels
    ]
    singles = [(f"#side{side}", (View(p, side),)) for side, p in enumerate(paradigms)]
    return prepare_examples(runtime, instances, view_sets + singles)


def train_retriever_pipeline(
    runtime: Runtime,
    instances: list[CorpusInstance],
    vocab: Vocabulary | None = None,
    distill_config: DistillConfig | None = None,
    coverage_levels: tuple[float, ...] = (),
    examples: list[RetrieverExample] | None = None,
):
    """Stage 1: distillation training of the generative retriever."""
    config = distill_config or runtime.config.distill
    if vocab is None:
        vocab = corpus_vocabulary(instances)
    if examples is None:
        examples = prepare_retriever_examples(runtime, instances, coverage_levels)
    model = init_retriever(
        len(vocab),
        runtime.config.d_m,
        runtime.config.d_q,
        runtime.config.d_s,
        subseed(config.seed, "retriever-init"),
    )
    trained, report = train_retriever(model, examples, vocab, runtime.embedder, config)
    return trained, vocab, report


def train_alignment_pipeline(
    runtime: Runtime,
    paradigm: str,
    instances: list[CorpusInstance],
    align_config: AlignConfig | None = None,
    coverage_levels: tuple[float, ...] = (),
):
    """Stage 2: contrastive alignment of one target paradigm.

    Coverage levels add segment-masked views of each instance to the
    demonstration pool so that partial-context states are also aligned.
    """
    config = align_config or runtime.config.align
    masks = [(None, 1.0)] + [(side, level) for level in coverage_levels for side in (0, 1)]
    anchor_raw, target_raw = (
        np.concatenate([encode(runtime, instances, View(p, *mask)) for mask in masks])
        for p in (ANCHOR_PARADIGM, paradigm)
    )
    target_init = init_alignment_module(
        target_raw.shape[1],
        runtime.config.d_h,
        runtime.config.d_s,
        subseed(config.seed, f"align-init:{paradigm}"),
    )
    trained, report = train_alignment(
        runtime.anchor_module, target_init, anchor_raw, target_raw, config
    )
    runtime.target_modules[paradigm] = trained
    return trained, report


# -- evaluation ----------------------------------------------------------


def decode_instances(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    views: Sequence[View],
) -> list[EvidenceSubgraph]:
    """Decode every instance's evidence from its full graph, conditioned on
    its query and its pooled ``views``, decoded in lock step."""
    return decode_many(
        model,
        vocab,
        (
            (instance.full_graph(), runtime.embedder.embed(instance.query), h)
            for instance, h in zip(instances, condition(runtime, instances, views))
        ),
    )


def evaluate_retrieval(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    views: Sequence[View] = (View(ANCHOR_PARADIGM),),
) -> dict:
    """Decode every instance conditioned on ``views`` and report QA +
    memory-efficiency metrics.

    The retrieved evidence text is scored directly against the gold
    answer (the containment oracle stands in for an agent model).  The
    default view is the full-context anchored one.  Raises
    :class:`MetricsError` for no instances.
    """
    if not instances:
        raise MetricsError("evaluation requires at least one instance")
    subgraphs = decode_instances(runtime, model, vocab, instances, views)
    records = []
    em_scores = []
    f1_scores = []
    rouge_scores = []
    exact_graph = 0
    for instance, sub in zip(instances, subgraphs):
        text = emit_evidence(sub) if sub.confidence is not None else ""
        records.append(MemoryRecord(text, instance.gold_answer, True))
        pair = AnswerPair(text, (instance.gold_answer,))
        em_scores.append(exact_match(pair))
        f1_scores.append(token_f1(pair))
        rouge_scores.append(rouge1(pair))
        exact_graph += int(sub == instance.gold_subgraph())
    return {
        "em": float(np.mean(em_scores)),
        "f1": float(np.mean(f1_scores)),
        "rouge1": float(np.mean(rouge_scores)),
        "mem_length": mem_length(records),
        "unique_ratio": unique_ratio(records),
        "utilization": memory_utilization(records),
        "subgraph_exact_match": exact_graph / len(instances),
        "n": len(instances),
    }


def reconstruction_rate(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    examples: list[RetrieverExample],
) -> float:
    """Fraction of examples whose constrained decode equals the gold.
    Raises :class:`MetricsError` for no examples."""
    if not examples:
        raise MetricsError("reconstruction rate requires at least one example")
    subgraphs = decode_many(
        model,
        vocab,
        (
            (example.full_graph, runtime.embedder.embed(example.query), example.h)
            for example in examples
        ),
    )
    hits = sum(
        int(sub == example.gold_subgraph) for sub, example in zip(subgraphs, examples)
    )
    return hits / len(examples)


# -- checkpoint packing --------------------------------------------------


def module_sections(module: AlignmentModule, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}/{k}": v for k, v in module.parameters().items()}


def module_from_sections(sections: dict[str, np.ndarray], prefix: str) -> AlignmentModule:
    try:
        return AlignmentModule(
            *(
                np.asarray(sections[f"{prefix}/{name}"], dtype=np.float64)
                for name in ("layer1_weight", "layer1_bias", "layer2_weight", "layer2_bias")
            )
        )
    except KeyError as exc:
        raise CheckpointError(f"missing checkpoint section {exc}") from exc


# A retriever checkpoint stores each gate's parameters as its own section,
# in this order; the model keeps them stacked as [z gate; c gate].
_GATE_SECTIONS = (
    ("w_in", ("wz", "wc")),
    ("u_rec", ("uz", "uc")),
    ("b_in", ("bz", "bc")),
)
_RETRIEVER_SECTIONS = (
    "emb", "cond_weight", "cond_bias", "wz", "uz", "bz", "wc", "uc", "bc",
    "out_weight", "out_bias",
)


def retriever_sections(model: RetrieverModel) -> dict[str, np.ndarray]:
    params = model.parameters()
    for stacked, halves in _GATE_SECTIONS:
        params.update(zip(halves, np.split(params.pop(stacked), 2)))
    return {f"retriever/{name}": params[name] for name in _RETRIEVER_SECTIONS}


def retriever_from_sections(sections: dict[str, np.ndarray]) -> RetrieverModel:
    try:
        params = {name: sections[f"retriever/{name}"] for name in _RETRIEVER_SECTIONS}
    except KeyError as exc:
        raise CheckpointError(f"missing checkpoint section {exc}") from exc
    for stacked, halves in _GATE_SECTIONS:
        z, c = (params.pop(half) for half in halves)
        if z.shape != c.shape:
            raise CheckpointError(f"sections {halves[0]!r} and {halves[1]!r} differ in shape")
        params[stacked] = np.concatenate([z, c])
    return RetrieverModel(**params)
