"""Linearization between graphs and token sequences."""
import numpy as np
import pytest

from memalign.graphs import EvidenceSubgraph, MemoryGraph, Node, parse_full_graph
from memalign.tokenization import (
    LinearizationError,
    delinearize,
    graph_surface_words,
    linearize,
    linearize_evidence,
)
from memalign.vocab import (
    BOS,
    EOS,
    TOK_EDGES,
    TOK_EOL,
    TOK_HEADER,
    TOK_NODES,
    UNK,
    build_vocabulary,
)
from util import random_graph, random_subgraph


def vocab_for(graph, confidence=None):
    return build_vocabulary(graph_surface_words(graph, confidence))


def test_empty_graph_is_seven_tokens():
    g = MemoryGraph((), ())
    seq = linearize(g, vocab_for(g))
    assert list(seq) == [BOS, TOK_HEADER, TOK_NODES, TOK_EOL, TOK_EDGES, TOK_EOL, EOS]
    assert len(seq) == 7


def test_single_node_sequence_shape():
    g = MemoryGraph((Node("N1", "amber harbor"),), ())
    vocab = vocab_for(g)
    seq = list(linearize(g, vocab))
    # BOS HDR NODES EOL | N1 : amber harbor EOL | EDGES EOL | EOS
    assert len(seq) == 12
    assert seq[4] == vocab.id_of("N1")
    assert seq[-1] == EOS


def test_confidence_section_tokens():
    g = MemoryGraph((), ())
    vocab = vocab_for(g, 0.85)
    seq = linearize(g, vocab, confidence=0.85)
    sub = delinearize(seq, vocab)
    assert sub.confidence == 0.85
    assert sub.graph == g


def test_round_trip_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        full = random_graph(rng, min_nodes=1)
        sub = random_subgraph(full, rng, confidence=0.5)
        vocab = vocab_for(sub.graph, sub.confidence)
        seq = linearize_evidence(sub, vocab)
        assert delinearize(seq, vocab) == sub


def test_round_trip_without_confidence():
    rng = np.random.default_rng(4)
    g = random_graph(rng, min_nodes=2)
    vocab = vocab_for(g)
    back = delinearize(linearize(g, vocab), vocab)
    assert back.graph == g and back.confidence is None


def test_delinearize_rejects_garbage():
    g = MemoryGraph((Node("N1", "x"),), ())
    vocab = vocab_for(g)
    good = list(linearize(g, vocab))
    for bad in (
        good[1:],  # missing BOS
        good[:-1],  # missing EOS
        good + [EOS],  # trailing tokens
        [BOS, EOS],  # empty body
        [BOS, TOK_HEADER, TOK_EDGES, TOK_EOL, EOS],  # markers out of order
        # ids outside the vocabulary in place of the description word "x"
        *(good[:6] + [bad_id] + good[7:] for bad_id in (-1, -11, len(vocab))),
    ):
        with pytest.raises(LinearizationError):
            delinearize(tuple(bad), vocab)


def test_unk_reads_as_a_word():
    # UNK stands for an unseen word, so unlike the sentinels and structural
    # markers it may stand in a description.
    g = MemoryGraph((Node("N1", "x"),), ())
    vocab = vocab_for(g)
    toks = list(linearize(g, vocab))
    toks[6] = UNK  # N1 : x EOL -> N1 : <unk> EOL
    assert delinearize(tuple(toks), vocab).graph.nodes == (Node("N1", "<unk>"),)


def test_delinearize_rejects_duplicate_node_ids():
    g = MemoryGraph((Node("N1", "x"),), ())
    vocab = vocab_for(g)
    toks = list(linearize(g, vocab))
    node_line = toks[4:8]  # N1 : x EOL
    doubled = toks[:8] + node_line + toks[8:]
    with pytest.raises(LinearizationError):
        delinearize(tuple(doubled), vocab)


# Descriptions and relations whose words are spelled like structural tokens.
RESERVED_SPELLED_GRAPH = (
    "[FULL_GRAPH]\n<NODES>\nN1: red -> lamp\nN2: calm : sea\n"
    "<EDGES>\nN1 -> N2: <eol> feeds\n"
)


def test_words_spelled_like_structural_tokens_round_trip():
    full = parse_full_graph(RESERVED_SPELLED_GRAPH)
    sub = EvidenceSubgraph(full, 0.5)
    vocab = vocab_for(full, 0.5)
    assert {"->", ":", "<eol>"} <= set(vocab.words)
    tokens = linearize_evidence(sub, vocab)
    assert isinstance(tokens, tuple)
    assert delinearize(tokens, vocab) == sub


def test_surface_words_cover_linearization():
    rng = np.random.default_rng(5)
    g = random_graph(rng, min_nodes=1)
    vocab = vocab_for(g, 0.25)
    linearize(g, vocab, confidence=0.25)  # closed vocab: no OOV raised


def test_multi_space_descriptions_are_lossy_by_design():
    g = MemoryGraph((Node("N1", "two  spaces"),), ())
    vocab = build_vocabulary(["N1", "two", "spaces"])
    back = delinearize(linearize(g, vocab), vocab)
    assert back.graph.nodes[0].description == "two spaces"
