"""Lock-step batched decoding against one-request decodes."""
import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

from memalign import decoding
from memalign.checkpoint import load_checkpoint, save_checkpoint
from memalign.decoding import DecodeError, decode_many, generate_subgraph
from memalign.graphs import (
    Edge,
    MemoryGraph,
    Node,
    emit,
    emit_evidence,
    parse_evidence,
    parse_full_graph,
    verify_subset,
)
from memalign.pipeline import retriever_from_sections, retriever_sections
from memalign.retriever import (
    DistillConfig,
    QueryEmbedder,
    RetrieverError,
    RetrieverExample,
    RetrieverModel,
    init_retriever,
    sequence_logits,
    train_retriever,
)
from memalign.tokenization import (
    edge_line_tokens,
    graph_surface_words,
    linearize,
    linearize_evidence,
    node_line_tokens,
)
from memalign.vocab import BOS, build_vocabulary
from test_reference_decode import REFERENCE, long_cases, small_cases
from util import (
    count_index_builds,
    memory_graph,
    random_graph,
    random_subgraph,
    sequential_decode,
)

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


# The batch runs each step as one gemm over its rows, and a lone decode as
# one gemv, which may round the last bits differently: the outputs must
# still match at widths below, between and at multiples of the BLAS
# kernels' blocks (5, 13, 31 and 128), and with windows of one row.
@pytest.mark.parametrize(
    "d_m, window",
    [(5, 64), (8, 64), (13, 64), (31, 64), (128, 64), (8, 1), (13, 4), (128, 4)],
)
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


def test_a_malformed_request_raises_its_own_error():
    rng = np.random.default_rng(13)
    graphs, vocab = mixed_batch(rng, count=6)
    model = init_retriever(len(vocab), 8, 4, 3, seed=4)
    good = requests_for(graphs, rng)
    bad = (graphs[0], np.zeros(5), np.zeros(3))  # wrong query dimension
    with pytest.raises(RetrieverError, match="conditioning dimension"):
        decode_many(model, vocab, [good[0], bad, good[1]])
    with pytest.raises(RetrieverError, match="conditioning dimension"):
        generate_subgraph(model, *bad, vocab)


def taking(requests, taken):
    """``requests`` as a stream that records the index of each one taken."""
    for i, request in enumerate(requests):
        taken.append(i)
        yield request


@pytest.mark.parametrize("window", [1, 2, 64])
def test_requests_after_a_failure_are_not_taken(window, monkeypatch):
    """A malformed request raises as it joins and no later request is
    taken, whatever the window: the requests before it cannot fail, so its
    error is the first a loop over the requests in order raises."""
    monkeypatch.setattr(decoding, "DECODE_WINDOW", window)
    rng = np.random.default_rng(14)
    graphs, vocab = mixed_batch(rng, count=8)
    model = init_retriever(len(vocab), 8, 4, 3, seed=5)
    good = requests_for(graphs, rng)
    for j in range(len(good)):
        requests = [*good[:j], (graphs[j], np.zeros(5), np.zeros(3)), *good[j + 1 :]]
        taken = []
        with pytest.raises(RetrieverError, match="conditioning dimension"):
            decode_many(model, vocab, taking(requests, taken))
        assert taken == list(range(j + 1))


def test_batch_requires_confidence_token():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = build_vocabulary(["N1", "amber"])  # no numeric word
    model = init_retriever(len(vocab), 8, 4, 3, seed=0)
    requests = [(full, np.zeros(4), np.zeros(3))] * 2
    with pytest.raises(DecodeError, match="confidence"):
        decode_many(model, vocab, requests)


@pytest.mark.parametrize("model_size", [15, 23])
def test_retriever_and_vocabulary_of_different_sizes_are_refused(model_size):
    """A retriever with fewer or more token rows than the vocabulary has
    tokens is refused before any request is taken."""
    full = MemoryGraph((Node("N1", "amber"), Node("N2", "calm")), (Edge("N1", "N2", "feeds"),))
    vocab = build_vocabulary([*graph_surface_words(full), "0.5", "0.9", "1.0"])
    assert len(vocab) == 18
    model = init_retriever(model_size, 8, 4, 3, seed=0)
    taken = []

    def stream():
        taken.append(full)
        yield full, np.zeros(4), np.zeros(3)

    with pytest.raises(
        DecodeError, match=f"retriever has {model_size} token rows but the vocabulary has 18"
    ):
        decode_many(model, vocab, stream())
    assert not taken


def test_empty_batch():
    vocab = build_vocabulary(["N1", "0.5"])
    assert decode_many(init_retriever(len(vocab), 8, 4, 3, seed=0), vocab, []) == []


def confidence_taken_at(sub, vocab) -> int:
    """L: the tokens (BOS included) a decode has taken once it takes its
    confidence value; only EOL and EOS follow."""
    return len(linearize_evidence(sub, vocab)) - 2


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


# Lines parse_full_graph accepts that are irregular as token streams: runs
# of whitespace collapse, and words are spelled like structural tokens.
IRREGULAR_LINES = (
    ("N1: amber  gate", "N2: calm yard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm\tyard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm yard", "N1 -> N2: feeds   into"),
    ("N1: gate -> yard", "N2: calm yard", "N1 -> N2: feeds"),
    ("N1: amber gate", "N2: calm : yard", "N2 -> N1: a -> b : c"),
    ("N1: amber <eol> gate", "N2: <bos> <eos>", "N1 -> N2: <eol> x", "N1 -> N2: <eol>"),
    ("N1: red -> lamp", "N2: calm : sea", "N1 -> N2: <eol> feeds"),
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


def test_node_ids_colliding_on_unk_decode_as_distinct_nodes():
    # N2 and N3 are not in the vocabulary, so both map to UNK.  The engine
    # tells their lines apart by their place in the graph, so both nodes
    # decode, and the edge into N2 opens by node id.
    full = MemoryGraph(
        (Node("N1", "amber"), Node("N2", "calm"), Node("N3", "calm")),
        (Edge("N1", "N2", "feeds"),),
    )
    vocab = build_vocabulary(["N1", "amber", "calm", "feeds", "0.5"])
    model = init_retriever(len(vocab), 8, 4, 3, seed=0)
    model.out_bias[[decoding.TOK_EDGES, decoding.TOK_CONFIDENCE]] = -1e3
    good_graph = MemoryGraph((Node("N1", "amber"),), ())
    good = (good_graph, np.zeros(4), np.zeros(3))
    colliding = (full, np.zeros(4), np.zeros(3))
    malformed = (good_graph, np.zeros(5), np.zeros(3))
    sub = generate_subgraph(model, *colliding, vocab)
    assert sorted(sub.graph.nodes, key=full.nodes.index) == list(full.nodes)
    assert sub.graph.edges == full.edges
    assert verify_subset(sub, full).accepted
    for requests in ([good, colliding, good], [colliding, good, good]):
        assert decode_many(model, vocab, requests) == [
            generate_subgraph(model, *request, vocab) for request in requests
        ]
    for requests in ([good, colliding, malformed], [good, malformed, colliding]):
        with pytest.raises(RetrieverError, match="conditioning dimension"):
            decode_many(model, vocab, requests)


def test_a_lone_decode_and_a_batch_row_alike_on_an_adversarial_graph():
    """A graph with a duplicated edge, ``<eol>`` words and node ids that
    collide on UNK, decoded against closing a section: the lone decode,
    the first row of a batch whose other rows are shorter (so it finishes
    alone) and the sequential reference return the same evidence, the
    whole graph, in exactly the full linearization and the 4 tokens of the
    confidence section."""
    full = MemoryGraph(
        (Node("N1", "amber <eol> gate"), Node("N2", "calm"), Node("N3", "calm"),
         Node("N4", "<eol>")),
        (Edge("N1", "N2", "feeds"), Edge("N1", "N2", "feeds"), Edge("N3", "N1", "<eol> joins"),
         Edge("N4", "N3", "feeds"), Edge("N1", "N4", "feeds")),
    )
    # N3 and N4 are not in the vocabulary: both read as UNK.
    vocab = build_vocabulary(["N1", "N2", "amber", "<eol>", "gate", "calm", "feeds", "joins",
                              "0.5", "0.9"])
    model = init_retriever(len(vocab), 8, 4, 3, seed=2)
    model.out_bias[[decoding.TOK_EDGES, decoding.TOK_CONFIDENCE]] = -1e3
    rng = np.random.default_rng(18)
    request = (full, rng.standard_normal(4), rng.standard_normal(3))
    others = [(MemoryGraph((Node("N1", "amber"),), ()), rng.standard_normal(4),
               rng.standard_normal(3)),
              (MemoryGraph((Node("N2", "calm"), Node("N1", "gate")), (Edge("N2", "N1", "feeds"),)),
               rng.standard_normal(4), rng.standard_normal(3))]

    def decoded_length(sub):  # BOS to EOS; every word known, to count them
        known = build_vocabulary([*graph_surface_words(sub.graph), "0.5", "0.9"])
        return len(linearize_evidence(sub, known))

    sub = sequential_decode(model, *request, vocab)
    assert sorted(sub.graph.nodes, key=full.nodes.index) == list(full.nodes)
    assert sorted(sub.graph.edges, key=full.edges.index) == list(full.edges)
    assert verify_subset(sub, full).accepted
    known = build_vocabulary([*graph_surface_words(full), "0.5", "0.9"])
    assert decoded_length(sub) == len(linearize(full, known)) + 4
    assert all(decoded_length(sequential_decode(model, *r, vocab)) < decoded_length(sub)
               for r in others)
    assert generate_subgraph(model, *request, vocab) == sub
    assert decode_many(model, vocab, [request, *others])[0] == sub


# -- state kept across calls: the projection table and the graph indexes --


def test_input_projections_are_computed_once_per_model():
    rng = np.random.default_rng(18)
    graphs, vocab = mixed_batch(rng, count=10)
    model = init_retriever(len(vocab), 8, 4, 3, seed=9)
    requests = requests_for(graphs, rng)
    first = [generate_subgraph(model, *request, vocab) for request in requests]
    table = model.projections()
    # One gemm over the whole vocabulary, gate-major with the update gate's
    # half scaled by 1/2, exactly; row t is W x_t + b up to how a gemm and
    # a gemv round.
    flat = model.emb @ model.w_in.T + model.b_in
    d_m = model.d_m
    assert table.shape == (2, model.vocab_size, d_m)
    assert np.array_equal(2.0 * table[0], flat[:, :d_m])
    assert np.array_equal(table[1], flat[:, d_m:])
    for token in range(model.vocab_size):
        expected = model.w_in @ model.emb[token] + model.b_in
        row = np.concatenate([2.0 * table[0, token], table[1, token]])
        np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-15)
    # Repeats read the same table: nothing is projected again.
    for _ in range(2):
        assert [generate_subgraph(model, *request, vocab) for request in requests] == first
        assert decode_many(model, vocab, requests) == first
        assert model.projections() is table
    # A teacher-forced pass rebuilds the table from the current parameters
    # and gathers each step's pre-activations from it, bit for bit.
    seqs = [[BOS, *rng.integers(0, model.vocab_size, size=n)] for n in (5, 2, 9)]
    cache = sequence_logits(model, seqs, rng.standard_normal((3, 4)), rng.standard_normal((3, 3)))
    rebuilt = model.projections()
    assert rebuilt is not table and np.array_equal(rebuilt, table)
    states = cache.states[0]
    for t, inputs in enumerate(cache.inputs):
        states = model.transition(rebuilt[:, inputs], states)
        assert np.array_equal(states, cache.states[t + 1])


def test_parameters_change_in_place_and_reach_the_decode_once_dropped():
    rng = np.random.default_rng(19)
    graphs, vocab = mixed_batch(rng, count=12)
    model = init_retriever(len(vocab), 8, 4, 3, seed=10)
    requests = requests_for(graphs, rng)
    before = decode_many(model, vocab, requests)  # fills the table
    for name in ("emb", "w_in", "u_rec", "out_weight"):
        value = getattr(model, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value + 1.0)
        value += rng.standard_normal(value.shape)
        model.drop_projections()
        after = decode_many(model, vocab, requests)
        assert after != before, name  # the new value changes what decodes
        assert after == decode_many(model.copy(), vocab, requests), name
        before = after


def test_in_place_recurrence_update_reaches_the_next_decode_once_dropped():
    rng = np.random.default_rng(23)
    graphs, vocab = mixed_batch(rng, count=12)
    model = init_retriever(len(vocab), 8, 4, 3, seed=14)
    requests = requests_for(graphs, rng)
    before = decode_many(model, vocab, requests)  # caches [Uz.T / 2, Uc.T]
    cached = model.recurrence_weight()
    u_rec = model.u_rec
    u_rec += rng.standard_normal(u_rec.shape)  # in place, as AdamW updates
    # Until dropped, the cached transpose still holds the old weights.
    assert model.recurrence_weight() is cached
    assert decode_many(model, vocab, requests) == before
    model.drop_projections()
    d_m = model.d_m
    gate_major = np.stack([model.u_rec[:d_m].T * 0.5, model.u_rec[d_m:].T])
    assert np.array_equal(model.recurrence_weight(), gate_major)
    after = decode_many(model, vocab, requests)
    assert after != before
    assert after == decode_many(model.copy(), vocab, requests)
    assert after == [sequential_decode(model, *r, vocab) for r in requests]


def test_trained_model_decodes_like_its_checkpoint(tmp_path):
    rng = np.random.default_rng(20)
    graphs, vocab = mixed_batch(rng, count=8)
    embedder = QueryEmbedder(4, 0)
    examples = [
        RetrieverExample(
            f"e{i}", f"query {i}", full, random_subgraph(full, rng), rng.standard_normal(3)
        )
        for i, full in enumerate(graphs)
    ]
    model_init = init_retriever(len(vocab), 8, 4, 3, seed=11)
    requests = [(e.full_graph, embedder.embed(e.query), e.h) for e in examples]
    decode_many(model_init, vocab, requests)  # fills the initial model's table
    config = DistillConfig(epochs=2, learning_rate=5e-3, batch_size=3)
    trained, _ = train_retriever(model_init, examples, vocab, embedder, config)
    save_checkpoint(retriever_sections(trained), tmp_path / "retriever.ckpt")
    reloaded = retriever_from_sections(load_checkpoint(tmp_path / "retriever.ckpt"))
    decoded = decode_many(trained, vocab, requests)
    assert decoded != decode_many(model_init, vocab, requests)
    assert decoded == decode_many(reloaded, vocab, requests)
    # The last optimizer step changed the parameters in place after the
    # last forward pass: the cached table and weight must be built anew.
    fresh = trained.copy()
    np.testing.assert_array_equal(trained.projections(), fresh.projections())
    np.testing.assert_array_equal(trained.recurrence_weight(), fresh.recurrence_weight())


def test_equal_graphs_share_one_index(monkeypatch):
    rng = np.random.default_rng(21)
    full = random_graph(rng, min_nodes=5, max_extra_edges=10)
    vocab = build_vocabulary([*graph_surface_words(full), *CONFIDENCES])
    model = init_retriever(len(vocab), 8, 4, 3, seed=12)
    built = count_index_builds(monkeypatch)
    text = emit(full, "full")
    copies = [parse_full_graph(text) for _ in range(3)]
    assert all(copy == full and copy is not full for copy in copies)
    q, h = rng.standard_normal(4), rng.standard_normal(3)
    expected = generate_subgraph(model, full, q, h, vocab)
    assert decode_many(model, vocab, [(g, q, h) for g in copies]) == [expected] * 3
    assert len(built) == 1 and vocab.graph_index is built[0]
    # The index is the vocabulary's: an equal vocabulary starts its own.
    other = build_vocabulary(vocab.words)
    assert generate_subgraph(model, copies[0], q, h, other) == expected
    assert len(built) == 2 and other.graph_index is built[1]


def chain_graph(nodes: int, first: int = 1) -> MemoryGraph:
    """A path over ``nodes`` nodes: 2 * nodes - 1 lines."""
    ids = [f"N{first + i}" for i in range(nodes)]
    return MemoryGraph(
        tuple(Node(n, "amber gate") for n in ids),
        tuple(Edge(a, b, "feeds") for a, b in zip(ids, ids[1:])),
    )


def test_the_vocabulary_keeps_only_the_last_index(monkeypatch):
    graphs = {name: chain_graph(4, first) for name, first in (("a", 1), ("b", 11))}
    words = [w for g in graphs.values() for w in graph_surface_words(g)]
    vocab = build_vocabulary([*words, *CONFIDENCES])
    assert vocab.graph_index is None

    def use(graph):
        return decoding.ConstraintEngine(graph, vocab).index

    a = use(graphs["a"])
    copy_a = parse_full_graph(emit(graphs["a"], "full"))
    assert copy_a is not graphs["a"] and use(copy_a) is a
    assert vocab.graph_index is a and a.graph is graphs["a"]
    b = use(graphs["b"])
    assert b is not a and vocab.graph_index is b
    again = use(graphs["a"])
    assert again is not a and vocab.graph_index is again
    # A batch over distinct graphs leaves only the last graph's index.
    rng = np.random.default_rng(22)
    drawn = (random_graph(rng, max_nodes=9, max_extra_edges=10) for _ in range(60))
    many = list(dict.fromkeys(drawn))  # distinct graphs
    vocab = build_vocabulary(
        [*sorted({w for g in many for w in graph_surface_words(g)}), *CONFIDENCES]
    )
    model = init_retriever(len(vocab), 8, 4, 3, seed=13)
    requests = [(g, rng.standard_normal(4), rng.standard_normal(3)) for g in many]
    expected = [generate_subgraph(model, *request, vocab) for request in requests]
    built = count_index_builds(monkeypatch)
    assert decode_many(model, vocab, requests) == expected
    assert len(built) == len(many) > 40
    assert vocab.graph_index is built[-1] and vocab.graph_index.graph is many[-1]


def test_a_repeat_of_a_large_graph_reuses_its_index(monkeypatch):
    # 1,025 lines: a graph's size does not decide whether it is kept.
    full = chain_graph(513)
    assert len(full.nodes) + len(full.edges) > 1024
    vocab = build_vocabulary([*graph_surface_words(full), *CONFIDENCES])
    model = init_retriever(len(vocab), 8, 4, 3, seed=14)
    built = count_index_builds(monkeypatch)
    rng = np.random.default_rng(23)
    q, h = rng.standard_normal(4), rng.standard_normal(3)
    first = generate_subgraph(model, full, q, h, vocab)
    assert generate_subgraph(model, full, q, h, vocab) == first
    assert len(built) == 1 and vocab.graph_index is built[0]


def long_memory_case(seed: int, nodes: int = 200):
    """A long-memory-shaped graph of ``nodes`` nodes with a vocabulary and
    a seeded untrained retriever."""
    rng = np.random.default_rng(seed)
    full = memory_graph(rng, nodes, 2 * nodes)
    vocab = build_vocabulary([*graph_surface_words(full), *CONFIDENCES])
    model = init_retriever(len(vocab), 16, 4, 3, seed=seed)
    return full, vocab, model, rng


def test_a_decode_tokenizes_only_the_lines_that_became_candidates(monkeypatch):
    full, vocab, model, rng = long_memory_case(31)
    tokenized = []

    def counting(tokens_of):
        def wrapper(element, word_id):
            tokenized.append(element)
            return tokens_of(element, word_id)

        return wrapper

    monkeypatch.setattr(decoding, "node_line_tokens", counting(decoding.node_line_tokens))
    monkeypatch.setattr(decoding, "edge_line_tokens", counting(decoding.edge_line_tokens))
    # The lines each line start's token makes candidates, read from the
    # engine's pending groups as the step is taken.
    candidates = []
    step = decoding.ConstraintEngine._step

    def recording(engine, token):
        if engine.phase.endswith("-line-start") and token in engine.pending:
            candidates.extend(engine.pending[token])
        step(engine, token)

    monkeypatch.setattr(decoding.ConstraintEngine, "_step", recording)
    lines = [*full.nodes, *full.edges]
    for _ in range(3):
        q, h = rng.standard_normal(4), rng.standard_normal(3)
        sub = generate_subgraph(model, full, q, h, vocab)
        assert verify_subset(sub, full).accepted
    index = vocab.graph_index
    # Each candidate line was tokenized once, into the shared index, and
    # no other line was.
    assert [id(e) for e in tokenized] == [id(lines[i]) for i in dict.fromkeys(candidates)]
    assert {i for i, line in enumerate(index.token_lines) if line is not None} == set(candidates)
    assert sub.graph.nodes and sub.graph.edges
    assert len(set(candidates)) < len(lines) // 2
    for i in set(candidates):
        tokens_of = node_line_tokens if i < len(full.nodes) else edge_line_tokens
        assert index.token_lines[i] == tuple(tokens_of(lines[i], vocab.input_id)[:-1])


def test_decodes_sharing_an_index_match_decodes_with_fresh_ones():
    full, vocab, model, rng = long_memory_case(32, nodes=120)
    requests = [(full, rng.standard_normal(4), rng.standard_normal(3)) for _ in range(8)]
    fresh = [
        generate_subgraph(model, *request, build_vocabulary(vocab.words)) for request in requests
    ]
    assert len({emit_evidence(sub) for sub in fresh}) > 1
    # One index for all: lone decodes back to back, then one batch.
    assert [generate_subgraph(model, *request, vocab) for request in requests] == fresh
    index = vocab.graph_index
    assert decode_many(model, vocab, requests) == fresh
    assert vocab.graph_index is index
