"""End-to-end glue: engine runtime, training data preparation, retrieval
evaluation, and checkpoint packing for modules and retriever models."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .checkpoint import CheckpointError
from .config import EngineConfig
from .contrastive import AlignConfig, train_alignment
from .corpus import (
    CorpusInstance,
    corpus_vocabulary,
    coverage_mask,
    instance_content,
    visible_gold,
)
from .decoding import decode_many
from .fusion import fuse_states
from .graphs import EvidenceSubgraph, emit_evidence
from .metrics import (
    AnswerPair,
    MemoryRecord,
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
    MemoryState,
    ParadigmRegistry,
    align_forward,
    init_alignment_module,
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


def anchor_state(
    runtime: Runtime, instance: CorpusInstance, mask: set[int] | None = None
) -> MemoryState:
    content = instance_content(instance)
    return runtime.registry.encode_state(ANCHOR_PARADIGM, content, mask)


def anchor_vector(
    runtime: Runtime, instance: CorpusInstance, mask: set[int] | None = None
) -> np.ndarray:
    return align_forward(runtime.anchor_module, anchor_state(runtime, instance, mask))


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
    examples: list[RetrieverExample] = []
    for instance in instances:
        full_graph = instance.full_graph()
        examples.append(
            RetrieverExample(
                id=instance.id,
                query=instance.query,
                full_graph=full_graph,
                gold_subgraph=instance.gold_subgraph(),
                h=anchor_vector(runtime, instance),
            )
        )
        for level in coverage_levels:
            mask0 = coverage_mask(0, level, instance.segment_count)
            mask1 = coverage_mask(1, level, instance.segment_count)
            h = np.maximum(
                anchor_vector(runtime, instance, mask0),
                anchor_vector(runtime, instance, mask1),
            )
            examples.append(
                RetrieverExample(
                    id=f"{instance.id}#cov{level:g}",
                    query=instance.query,
                    full_graph=full_graph,
                    gold_subgraph=visible_gold(instance, mask0 | mask1),
                    h=h,
                )
            )
    return examples


def prepare_fused_examples(
    runtime: Runtime,
    instances: list[CorpusInstance],
    paradigms: tuple[str, str],
    coverage_levels: tuple[float, ...],
    include_single: bool = True,
) -> list[RetrieverExample]:
    """Supervision pairs conditioned on fused target-paradigm vectors.

    Requires trained alignment modules for both paradigms.  For each
    coverage level the two paradigm sides are masked to that level,
    aligned, max-pooled, and labeled with the visible part of the gold
    chain; optional single-side variants cover one-paradigm retrieval.
    """
    modules = {p: runtime.target_modules[p] for p in paradigms}
    examples: list[RetrieverExample] = []
    for instance in instances:
        full_graph = instance.full_graph()
        content = instance_content(instance, paradigms)
        for level in coverage_levels:
            masks = [
                coverage_mask(side, level, instance.segment_count)
                for side in (0, 1)
            ]
            states = [
                runtime.registry.encode_state(paradigms[side], content, masks[side])
                for side in (0, 1)
            ]
            fused = fuse_states(states, modules)
            examples.append(
                RetrieverExample(
                    id=f"{instance.id}#fused{level:g}",
                    query=instance.query,
                    full_graph=full_graph,
                    gold_subgraph=visible_gold(instance, masks[0] | masks[1]),
                    h=fused.values,
                )
            )
        if include_single:
            for side in (0, 1):
                mask = coverage_mask(side, 1.0, instance.segment_count)
                state = runtime.registry.encode_state(
                    paradigms[side], content, mask
                )
                examples.append(
                    RetrieverExample(
                        id=f"{instance.id}#side{side}",
                        query=instance.query,
                        full_graph=full_graph,
                        gold_subgraph=visible_gold(instance, mask),
                        h=align_forward(modules[paradigms[side]], state),
                    )
                )
    return examples


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


def paradigm_states(
    runtime: Runtime,
    paradigm: str,
    instances: list[CorpusInstance],
    mask: set[int] | None = None,
) -> list[MemoryState]:
    return [
        runtime.registry.encode_state(paradigm, instance_content(i), mask)
        for i in instances
    ]


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
    masks: list[set[int] | None] = [None]
    for level in coverage_levels:
        for side in (0, 1):
            masks.append(coverage_mask(side, level, instances[0].segment_count))
    anchor_states = []
    target_states = []
    for mask in masks:
        anchor_states.extend(
            anchor_state(runtime, instance, mask) for instance in instances
        )
        target_states.extend(paradigm_states(runtime, paradigm, instances, mask))

    d_t = runtime.registry.get(paradigm).d_t
    target_init = init_alignment_module(
        d_t,
        runtime.config.d_h,
        runtime.config.d_s,
        subseed(config.seed, f"align-init:{paradigm}"),
    )
    if config.n_demos != len(anchor_states):
        raise ValueError(
            f"alignment config expects {config.n_demos} demonstrations, "
            f"got {len(anchor_states)} (instances x masks)"
        )
    trained, report = train_alignment(
        runtime.anchor_module, target_init, anchor_states, target_states, config
    )
    runtime.target_modules[paradigm] = trained
    return trained, report


# -- evaluation ----------------------------------------------------------


def decode_instances(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    vectors: list[np.ndarray],
) -> list[EvidenceSubgraph]:
    """Decode every instance's evidence from its full graph, conditioned on
    its query and the matching unified vector, decoded in lock step."""
    return decode_many(
        model,
        vocab,
        (
            (instance.full_graph(), runtime.embedder.embed(instance.query), h)
            for instance, h in zip(instances, vectors)
        ),
    )


def evaluate_retrieval(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    h_for_instance=None,
) -> dict:
    """Decode every instance and report QA + memory-efficiency metrics.

    The retrieved evidence text is scored directly against the gold
    answer (the containment oracle stands in for an agent model).
    ``h_for_instance`` maps an instance to its conditioning vector and
    defaults to the full-context anchored vector.
    """
    if h_for_instance is None:
        h_for_instance = lambda instance: anchor_vector(runtime, instance)
    subgraphs = decode_instances(
        runtime, model, vocab, instances, [h_for_instance(i) for i in instances]
    )
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
    """Fraction of examples whose constrained decode equals the gold."""
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


def _utilization(
    instances: list[CorpusInstance], subgraphs: list[EvidenceSubgraph]
) -> float:
    return memory_utilization(
        [
            MemoryRecord(emit_evidence(sub), instance.gold_answer, True)
            for instance, sub in zip(instances, subgraphs)
        ]
    )


def fused_utilization(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    paradigms: tuple[str, str],
    coverage: float,
) -> float:
    """Memory utilization of two-paradigm fused retrieval at a coverage level."""
    modules = {p: runtime.target_modules[p] for p in paradigms}
    vectors = []
    for instance in instances:
        content = instance_content(instance, paradigms)
        states = [
            runtime.registry.encode_state(
                paradigms[side],
                content,
                coverage_mask(side, coverage, instance.segment_count),
            )
            for side in (0, 1)
        ]
        vectors.append(fuse_states(states, modules).values)
    return _utilization(
        instances, decode_instances(runtime, model, vocab, instances, vectors)
    )


def single_paradigm_utilization(
    runtime: Runtime,
    model: RetrieverModel,
    vocab: Vocabulary,
    instances: list[CorpusInstance],
    paradigm: str,
    side: int,
    coverage: float = 1.0,
) -> float:
    """Utilization when only one paradigm's covered segments are available."""
    module = runtime.target_modules[paradigm]
    vectors = [
        align_forward(
            module,
            runtime.registry.encode_state(
                paradigm,
                instance_content(instance),
                coverage_mask(side, coverage, instance.segment_count),
            ),
        )
        for instance in instances
    ]
    return _utilization(
        instances, decode_instances(runtime, model, vocab, instances, vectors)
    )


# -- checkpoint packing --------------------------------------------------


def module_sections(module: AlignmentModule, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}/{k}": v for k, v in module.parameters().items()}


def module_from_sections(
    sections: dict[str, np.ndarray], prefix: str, activation: str = "tanh"
) -> AlignmentModule:
    try:
        return AlignmentModule(
            *(
                np.asarray(sections[f"{prefix}/{name}"], dtype=np.float64)
                for name in ("layer1_weight", "layer1_bias", "layer2_weight", "layer2_bias")
            ),
            activation,
        )
    except KeyError as exc:
        raise CheckpointError(f"missing checkpoint section {exc}") from exc


def retriever_sections(model: RetrieverModel, prefix: str = "retriever") -> dict[str, np.ndarray]:
    return {f"{prefix}/{k}": v for k, v in model.parameters().items()}


def retriever_from_sections(
    sections: dict[str, np.ndarray], prefix: str = "retriever"
) -> RetrieverModel:
    try:
        params = {f.name: sections[f"{prefix}/{f.name}"] for f in fields(RetrieverModel)}
    except KeyError as exc:
        raise CheckpointError(f"missing checkpoint section {exc}") from exc
    return RetrieverModel(**params)
