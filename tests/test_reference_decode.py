"""Decoded evidence against a committed reference.

``data/reference_decode.json`` holds the sha256 of ``emit_evidence`` for
seeded greedy decodes, recorded before the constraint engine was indexed
and forced steps stopped computing logits.  Any change to decoding must
reproduce every document byte for byte.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from memalign import EngineConfig
from memalign.corpus import ADJECTIVES, NOUNS, RELATIONS
from memalign.decoding import generate_subgraph
from memalign.graphs import MemoryGraph, emit, emit_evidence, parse_full_graph
from memalign.retriever import init_retriever
from memalign.tokenization import graph_surface_words
from memalign.vocab import build_vocabulary
from util import memory_graph, random_graph

pytestmark = pytest.mark.reference

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "reference_decode.json").read_text()
)
CONFIDENCES = ("0.5", "0.9", "1.0")
LONG_NODES = (85, 225, 365)
LONG_EDGES_PER_NODE = 3.5


def small_cases(rng):
    """40 random graphs at d_m = 8; every fourth has duplicated edges and
    every fourth (offset by two) has its edges dropped."""
    for i in range(40):
        full = random_graph(rng, max_nodes=10, max_extra_edges=12)
        if i % 4 == 1:
            full = MemoryGraph(full.nodes, full.edges + full.edges[::2])
        elif i % 4 == 3:
            full = MemoryGraph(full.nodes, ())
        vocab = build_vocabulary([*graph_surface_words(full), *CONFIDENCES])
        model = init_retriever(len(vocab), 8, 4, 3, seed=i)
        yield f"small-{i}", full, vocab, model, rng.standard_normal(4), rng.standard_normal(3)


def long_cases(rng):
    """Long-memory-shaped graphs at the default dimensions, sharing one
    vocabulary and one seeded untrained retriever."""
    cfg = EngineConfig()
    words = [f"N{i + 1}" for i in range(max(LONG_NODES))]
    words += [*ADJECTIVES, *NOUNS, *RELATIONS, *CONFIDENCES]
    vocab = build_vocabulary(words)
    model = init_retriever(len(vocab), cfg.d_m, cfg.d_q, cfg.d_s, seed=0)
    for n in LONG_NODES:
        full = memory_graph(rng, n, int(round(n * LONG_EDGES_PER_NODE)))
        q = rng.standard_normal(cfg.d_q)
        h = rng.standard_normal(cfg.d_s)
        yield f"long-{n}", full, vocab, model, q / np.linalg.norm(q), h / np.linalg.norm(h)


def decode_digests() -> dict[str, str]:
    rng = np.random.default_rng(REFERENCE["seed"])
    digests = {}
    for cases in (small_cases, long_cases):
        for name, full, vocab, model, q, h in cases(rng):
            sub = generate_subgraph(model, full, q, h, vocab)
            digests[name] = hashlib.sha256(emit_evidence(sub).encode("utf-8")).hexdigest()
    return digests


def test_decoded_evidence_matches_reference():
    assert decode_digests() == REFERENCE["digests"]


def test_warm_decodes_match_reference():
    """Every case decoded cold and then again through the same model and
    vocabulary, from a separately parsed copy of its graph: the second
    decode reads the projection table and the graph index the first one
    filled, and gives the same document."""
    rng = np.random.default_rng(REFERENCE["seed"])
    for cases in (small_cases, long_cases):
        for name, full, vocab, model, q, h in cases(rng):
            copy = parse_full_graph(emit(full, "full"))
            assert copy == full
            for graph in (full, copy):
                sub = generate_subgraph(model, graph, q, h, vocab)
                digest = hashlib.sha256(emit_evidence(sub).encode("utf-8")).hexdigest()
                assert digest == REFERENCE["digests"][name], name
            # The copy reused the index the first decode built, whatever
            # the graph's size.
            assert vocab.graph_index.graph is full
