"""Lock-step batched decoding against one-request decodes."""
import gc
import hashlib
import weakref

import numpy as np
import pytest

from memalign import decoding
from memalign.decoding import DecodeError, decode_many, generate_subgraph
from memalign.graphs import (
    Edge,
    MemoryGraph,
    Node,
    emit_evidence,
    parse_evidence,
    parse_full_graph,
    verify_subset,
)
from memalign.retriever import RetrieverError, RetrieverModel, init_retriever
from memalign.tokenization import graph_surface_words, linearize_evidence
from memalign.vocab import build_vocabulary
from test_reference_decode import REFERENCE, long_cases, small_cases
from util import random_graph, sequential_decode

CONFIDENCES = ("0.5", "0.9", "1.0")


def mixed_batch(rng, count=30):
    """Random graphs sharing one vocabulary: every third has duplicated
    edges and every third (offset by one) has no edges, so outputs differ
    in length and some rows finish many steps before others."""
    graphs = []
    for i in range(count):
        full = random_graph(rng, max_nodes=9, max_extra_edges=10)
        if i % 3 == 1:
            full = MemoryGraph(full.nodes, full.edges + full.edges[::2])
        elif i % 3 == 2:
            full = MemoryGraph(full.nodes, ())
        graphs.append(full)
    words = {w for full in graphs for w in graph_surface_words(full)}
    vocab = build_vocabulary([*sorted(words), *CONFIDENCES])
    return graphs, vocab


def requests_for(graphs, rng, d_q=4, d_s=3):
    return [(full, rng.standard_normal(d_q), rng.standard_normal(d_s)) for full in graphs]


def digest(sub) -> str:
    return hashlib.sha256(emit_evidence(sub).encode("utf-8")).hexdigest()


def first_error(decode, requests):
    """What a loop over the requests in input order raises first."""
    for full, q, h in requests:
        try:
            decode(full, q, h)
        except Exception as exc:  # noqa: BLE001 - any error is the answer
            return exc
    return None


# d_m = 13 is not a multiple of the BLAS kernel's row block, so a single
# gemv over [Uz; Uc] would round differently from the per-gate matvecs.
@pytest.mark.parametrize("d_m, window", [(8, 64), (13, 64), (8, 1), (13, 4)])
def test_mixed_batch_equals_reference_decodes(d_m, window, monkeypatch):
    monkeypatch.setattr(decoding, "DECODE_WINDOW", window)
    rng = np.random.default_rng(11)
    graphs, vocab = mixed_batch(rng)
    model = init_retriever(len(vocab), d_m, 4, 3, seed=d_m)
    requests = requests_for(graphs, rng)
    batch = decode_many(model, vocab, iter(requests))
    expected = [sequential_decode(model, full, q, h, vocab) for full, q, h in requests]
    assert batch == expected
    assert batch == [generate_subgraph(model, full, q, h, vocab) for full, q, h in requests]
    assert len({len(linearize_evidence(sub, vocab)) for sub in batch}) > 3
    assert all(verify_subset(sub, full).accepted for sub, full in zip(batch, graphs))


def test_batches_reproduce_reference_digests():
    rng = np.random.default_rng(REFERENCE["seed"])
    for name, full, vocab, model, q, h in small_cases(rng):
        # The reference request among other rows, and twice.
        others = [(full, -q, h), (full, q, -h)]
        subs = decode_many(model, vocab, [others[0], (full, q, h), others[1], (full, q, h)])
        assert digest(subs[1]) == digest(subs[3]) == REFERENCE["digests"][name]
        assert subs[0] == sequential_decode(model, *others[0], vocab)
        assert subs[2] == sequential_decode(model, *others[1], vocab)
    cases = list(long_cases(rng))
    _, _, vocab, model, _, _ = cases[0]
    subs = decode_many(model, vocab, [(full, q, h) for _, full, _, _, q, h in cases])
    assert {name: digest(sub) for (name, *_), sub in zip(cases, subs)} == {
        name: REFERENCE["digests"][name] for name, *_ in cases
    }


def test_max_len_failure_matches_sequential_loop():
    rng = np.random.default_rng(12)
    graphs, vocab = mixed_batch(rng, count=12)
    model = init_retriever(len(vocab), 8, 4, 3, seed=3)
    requests = requests_for(graphs, rng)
    lengths = [
        len(linearize_evidence(sequential_decode(model, *r, vocab), vocab)) for r in requests
    ]
    # A decode of n tokens (BOS and EOS included) fits a budget of n.
    max_len = sorted(lengths)[len(lengths) // 2]
    failing = [i for i, n in enumerate(lengths) if n > max_len]
    # Rows that fit finish before and after the first failing one.
    assert 0 < failing[0] and len(failing) < len(requests) - failing[0]
    expected = first_error(
        lambda full, q, h: sequential_decode(model, full, q, h, vocab, max_len), requests
    )
    assert isinstance(expected, DecodeError)
    with pytest.raises(DecodeError) as raised:
        decode_many(model, vocab, requests, max_len)
    assert str(raised.value) == str(expected)
    fitting = [r for r, n in zip(requests, lengths) if n <= max_len]
    assert decode_many(model, vocab, fitting, max_len) == [
        sequential_decode(model, *r, vocab) for r in fitting
    ]


def test_earlier_decode_failure_wins_over_later_bad_request():
    rng = np.random.default_rng(13)
    graphs, vocab = mixed_batch(rng, count=6)
    model = init_retriever(len(vocab), 8, 4, 3, seed=4)
    good = requests_for(graphs, rng)
    longest = max(
        good, key=lambda r: len(linearize_evidence(sequential_decode(model, *r, vocab), vocab))
    )
    shortest = min(
        good, key=lambda r: len(linearize_evidence(sequential_decode(model, *r, vocab), vocab))
    )
    max_len = len(linearize_evidence(sequential_decode(model, *longest, vocab), vocab)) - 1
    bad = (graphs[0], np.zeros(5), np.zeros(3))  # wrong query dimension

    def loop(full, q, h):
        return sequential_decode(model, full, q, h, vocab, max_len)

    # The long request runs out of budget before the malformed one is reached.
    requests = [shortest, longest, bad]
    expected = first_error(loop, requests)
    assert isinstance(expected, DecodeError)
    with pytest.raises(DecodeError) as raised:
        decode_many(model, vocab, requests, max_len)
    assert str(raised.value) == str(expected)

    # A malformed request before any failing one raises its own error.
    with pytest.raises(RetrieverError, match="conditioning dimension"):
        decode_many(model, vocab, [shortest, bad, longest], max_len)
    with pytest.raises(RetrieverError, match="conditioning dimension"):
        generate_subgraph(model, *bad, vocab)


@pytest.mark.parametrize("window", [1, 2, 64])
def test_requests_after_a_failure_are_not_taken(window, monkeypatch):
    monkeypatch.setattr(decoding, "DECODE_WINDOW", window)
    rng = np.random.default_rng(14)
    graphs, vocab = mixed_batch(rng, count=8)
    model = init_retriever(len(vocab), 8, 4, 3, seed=5)
    requests = requests_for(graphs, rng)
    lengths = [
        len(linearize_evidence(sequential_decode(model, *r, vocab), vocab)) for r in requests
    ]
    max_len = sorted(lengths)[len(lengths) // 2]
    first_failing = next(i for i, n in enumerate(lengths) if n > max_len)
    taken = []

    def stream():
        for i, request in enumerate(requests):
            taken.append(i)
            yield request

    with pytest.raises(DecodeError, match="max_len"):
        decode_many(model, vocab, stream(), max_len)
    # Requests are taken in order, and none once one has failed: with a
    # window of one, that is exactly a sequential loop.
    assert taken == list(range(len(taken))) and first_failing in taken
    if window == 1:
        assert taken == list(range(first_failing + 1))


def test_batch_requires_confidence_token():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = build_vocabulary(["N1", "amber"])  # no numeric word
    model = init_retriever(len(vocab), 8, 4, 3, seed=0)
    requests = [(full, np.zeros(4), np.zeros(3))] * 2
    with pytest.raises(DecodeError, match="confidence"):
        decode_many(model, vocab, requests)


def test_empty_batch():
    vocab = build_vocabulary(["N1", "0.5"])
    assert decode_many(init_retriever(len(vocab), 8, 4, 3, seed=0), vocab, []) == []


def confidence_taken_at(sub, vocab) -> int:
    """L: the tokens (BOS included) a decode has taken once it takes its
    confidence value; only EOL and EOS follow."""
    return len(linearize_evidence(sub, vocab)) - 2


@pytest.mark.parametrize("extra", [1, 2])
def test_budget_around_the_confidence_value_matches_sequential_decode(extra):
    rng = np.random.default_rng(15)
    graphs, vocab = mixed_batch(rng, count=6)
    model = init_retriever(len(vocab), 8, 4, 3, seed=6)
    for request in requests_for(graphs, rng):
        taken = confidence_taken_at(sequential_decode(model, *request, vocab), vocab)
        max_len = taken + extra
        expected = first_error(
            lambda full, q, h: sequential_decode(model, full, q, h, vocab, max_len), [request]
        )
        if extra == 1:
            # EOL fits, EOS does not: the step after the value still runs
            # and the budget runs out where a sequential decode's does.
            assert isinstance(expected, DecodeError)
            with pytest.raises(DecodeError) as raised:
                decode_many(model, vocab, [request], max_len)
            assert str(raised.value) == str(expected)
        else:
            assert expected is None
            assert decode_many(model, vocab, [request], max_len) == [
                sequential_decode(model, *request, vocab, max_len)
            ]


def test_no_recurrence_step_after_the_confidence_value(monkeypatch):
    rng = np.random.default_rng(16)
    graphs, vocab = mixed_batch(rng, count=10)
    model = init_retriever(len(vocab), 8, 4, 3, seed=7)
    requests = requests_for(graphs, rng)
    rows_stepped = []
    original = RetrieverModel.transition

    def counted(self, x_proj, states):
        rows_stepped.append(states.shape[0])
        return original(self, x_proj, states)

    monkeypatch.setattr(RetrieverModel, "transition", counted)
    subs = decode_many(model, vocab, requests)
    # A step consumes each token from BOS up to the one before the value.
    expected = [confidence_taken_at(sub, vocab) - 1 for sub in subs]
    assert sum(rows_stepped) == sum(expected)
    rows_stepped.clear()
    assert generate_subgraph(model, *requests[0], vocab) == subs[0]
    assert len(rows_stepped) == expected[0]


@pytest.mark.parametrize("window", [1, 3])
def test_no_engine_outlives_its_row(window, monkeypatch):
    monkeypatch.setattr(decoding, "DECODE_WINDOW", window)
    rng = np.random.default_rng(17)
    graphs, vocab = mixed_batch(rng, count=9)
    model = init_retriever(len(vocab), 8, 4, 3, seed=8)
    engines = []
    finished_before = []

    class TrackedEngine(decoding.ConstraintEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(weakref.ref(self))

    def stream():
        for request in requests_for(graphs, rng):
            gc.collect()
            finished_before.append(sum(ref() is None for ref in engines))
            yield request

    monkeypatch.setattr(decoding, "ConstraintEngine", TrackedEngine)
    subs = decode_many(model, vocab, stream())
    assert len(subs) == len(engines) == len(graphs)
    gc.collect()
    assert all(ref() is None for ref in engines)
    # Request j joins once fewer than ``window`` rows are decoding, so at
    # least j - window + 1 rows have finished, and their engines are gone.
    assert all(dead >= j - window + 1 for j, dead in enumerate(finished_before))


# Lines parse_full_graph accepts that a re-parse of the decoded tokens
# cannot reproduce: runs of whitespace collapse, and "->", ":" and "<eol>"
# are read back as structure.
IRREGULAR_LINES = (
    ("N1: amber  gate", "N2: calm yard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm\tyard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm yard", "N1 -> N2: feeds   into"),
    ("N1: gate -> yard", "N2: calm yard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm : yard", "N2 -> N1: a -> b : c"),
    ("N1: amber <eol> gate", "N2: <bos> <eos>", "N1 -> N2: <eol> x", "N1 -> N2: <eol>"),
)


@pytest.mark.parametrize("lines", IRREGULAR_LINES)
def test_irregular_lines_decode_to_evidence_that_verifies(lines):
    nodes = [line for line in lines if " -> " not in line.split(": ")[0]]
    edges = [line for line in lines if line not in nodes]
    text = "\n".join(["[FULL_GRAPH]", "<NODES>", *nodes, "<EDGES>", *edges]) + "\n"
    full = parse_full_graph(text)
    vocab = build_vocabulary([*graph_surface_words(full), *CONFIDENCES])
    for seed in range(4):
        model = init_retriever(len(vocab), 8, 4, 3, seed=seed)
        # Strongly against closing a section: every line gets decoded.
        model.out_bias[[decoding.TOK_EDGES, decoding.TOK_CONFIDENCE]] = -1e3
        rng = np.random.default_rng(seed)
        request = (full, rng.standard_normal(4), rng.standard_normal(3))
        sub = generate_subgraph(model, *request, vocab)
        assert sorted(sub.graph.nodes, key=lambda n: n.id) == list(full.nodes)
        assert sorted(sub.graph.edges, key=full.edges.index) == list(full.edges)
        assert verify_subset(sub, full).accepted
        assert parse_evidence(emit_evidence(sub)) == sub
        assert decode_many(model, vocab, [request, request]) == [sub, sub]


def test_lines_forming_no_graph_fail_like_a_sequential_loop():
    # In an open vocabulary N2 and N3 both map to UNK, so the engine
    # replays one UNK node line and opens edges of the other: the decoded
    # lines leave an edge dangling.
    full = MemoryGraph(
        (Node("N1", "amber"), Node("N2", "calm"), Node("N3", "calm")),
        (Edge("N1", "N2", "feeds"),),
    )
    vocab = build_vocabulary(["N1", "amber", "calm", "feeds", "0.5"], mode="open")
    model = init_retriever(len(vocab), 8, 4, 3, seed=0)
    model.out_bias[[decoding.TOK_EDGES, decoding.TOK_CONFIDENCE]] = -1e3
    good_graph = MemoryGraph((Node("N1", "amber"),), ())
    good = (good_graph, np.zeros(4), np.zeros(3))
    bad = (full, np.zeros(4), np.zeros(3))
    malformed = (good_graph, np.zeros(5), np.zeros(3))
    with pytest.raises(DecodeError, match="undeclared node") as raised:
        generate_subgraph(model, *bad, vocab)
    for requests in ([good, bad, good], [bad, good, good], [good, bad, malformed]):
        with pytest.raises(DecodeError) as batched:
            decode_many(model, vocab, requests)
        assert str(batched.value) == str(raised.value)
    with pytest.raises(RetrieverError, match="conditioning dimension"):
        decode_many(model, vocab, [good, malformed, bad])
