"""Grammar- and subset-constrained decoding."""
import numpy as np
import pytest

from memalign.decoding import ConstraintEngine, DecodeError, generate_subgraph
from memalign.graphs import (
    Edge,
    EvidenceSubgraph,
    MemoryGraph,
    Node,
    emit_evidence,
    verify_subset,
)
from memalign.retriever import RetrieverModel, init_retriever
from memalign.tokenization import graph_surface_words, linearize_evidence
from memalign.vocab import EOS, TOK_CONFIDENCE, TOK_EDGES, TOK_EOL, build_vocabulary
from util import ScanEngine, random_graph, random_subgraph

PHASES = (
    "header", "nodes-marker", "nodes-eol", "node-line-start", "node-line", "edges-eol",
    "edge-line-start", "edge-line", "confidence-eol", "confidence-value",
    "confidence-value-eol", "eos",
)


def vocab_with_confidence(graph, values=("0.9", "0.5")):
    words = list(graph_surface_words(graph))
    words.extend(values)
    return build_vocabulary(words)


def test_engine_accepts_gold_serialization():
    rng = np.random.default_rng(0)
    for _ in range(50):
        full = random_graph(rng, min_nodes=1)
        sub = random_subgraph(full, rng, confidence=0.5)
        vocab = vocab_with_confidence(full)
        engine = ConstraintEngine(full, vocab)
        tokens = list(linearize_evidence(sub, vocab))[1:]  # BOS is implicit
        for token in tokens:
            assert token in engine.allowed_tokens()
            engine.advance(token)
        assert engine.done


def test_engine_rejects_unknown_node_token():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = build_vocabulary(["N1", "amber", "N2", "stray", "0.9"])
    engine = ConstraintEngine(full, vocab)
    for token in engine.allowed_tokens():  # header
        engine.advance(token)
        break
    engine.advance(engine.allowed_tokens()[0])  # <NODES>
    engine.advance(engine.allowed_tokens()[0])  # EOL
    with pytest.raises(DecodeError):
        engine.advance(vocab.id_of("N2"))


def test_engine_allows_stopping_immediately():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = vocab_with_confidence(full)
    engine = ConstraintEngine(full, vocab)
    for _ in range(3):
        engine.advance(engine.allowed_tokens()[0])
    assert TOK_EDGES in engine.allowed_tokens()  # empty node section is legal


def test_edges_require_emitted_endpoints():
    rng = np.random.default_rng(1)
    full = random_graph(rng, min_nodes=3, max_extra_edges=5)
    while not full.edges:
        full = random_graph(rng, min_nodes=3, max_extra_edges=5)
    vocab = vocab_with_confidence(full)
    engine = ConstraintEngine(full, vocab)
    # header, <NODES>, EOL, then immediately close the node section
    for _ in range(3):
        engine.advance(engine.allowed_tokens()[0])
    engine.advance(TOK_EDGES)
    engine.advance(engine.allowed_tokens()[0])  # EOL
    # no nodes emitted -> no edges startable, only [CONFIDENCE]
    assert engine.allowed_tokens() == [TOK_CONFIDENCE]


def test_generate_subgraph_soundness_random_models():
    rng = np.random.default_rng(2)
    for trial in range(60):
        full = random_graph(rng, min_nodes=1)
        vocab = vocab_with_confidence(full)
        model = init_retriever(len(vocab), 8, 4, 3, seed=trial)
        q = rng.standard_normal(4)
        h = rng.standard_normal(3)
        sub = generate_subgraph(model, full, q, h, vocab)
        assert verify_subset(sub, full).accepted
        assert sub.confidence is not None
        emit_evidence(sub)  # serializable


def test_generate_requires_confidence_token():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = build_vocabulary(["N1", "amber"])  # no numeric word
    model = init_retriever(len(vocab), 8, 4, 3, seed=0)
    with pytest.raises(DecodeError, match="confidence"):
        generate_subgraph(model, full, np.zeros(4), np.zeros(3), vocab)


def test_decoded_tokens_end_with_eos():
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = vocab_with_confidence(full)
    engine = ConstraintEngine(full, vocab)
    while not engine.done:
        engine.advance(engine.allowed_tokens()[0])
    # The final advance consumed EOS.
    assert engine.phase == "eos"
    assert engine.allowed_tokens() == [EOS]


def with_duplicate_edges(full):
    return MemoryGraph(full.nodes, full.edges + full.edges[::2])


def test_indexed_engine_matches_scan_oracle():
    """Random legal walks: the indexed engine allows exactly the oracle's
    tokens, in ascending order, at every step, and rejects sampled illegal
    tokens in every phase without changing its state.  Each graph is
    walked twice, the second time from the cached index."""
    rng = np.random.default_rng(4)
    rejected_in = set()
    for trial in range(80):
        full = random_graph(rng, max_nodes=7, max_extra_edges=14)
        if trial % 2:
            full = with_duplicate_edges(full)
        vocab = vocab_with_confidence(full)
        # The second walk reads the index the first one built and cached.
        indexes = []
        for _walk in range(2):
            engine = ConstraintEngine(full, vocab)
            oracle = ScanEngine(full, vocab)
            indexes.append(engine.index)
            while not engine.done:
                allowed = engine.allowed_tokens()
                expected = oracle.allowed()
                assert set(allowed) == expected
                assert allowed == sorted(allowed)
                illegal = [t for t in range(len(vocab)) if t not in expected]
                for token in rng.choice(illegal, size=min(3, len(illegal)), replace=False):
                    with pytest.raises(DecodeError):
                        engine.advance(int(token))
                    assert engine.allowed_tokens() == allowed
                    rejected_in.add(engine.phase)
                # Mostly keep emitting lines, so that edges open and get used.
                lines = [t for t in allowed if t not in (TOK_EDGES, TOK_CONFIDENCE)]
                token = int(rng.choice(lines if lines and rng.random() < 0.85 else allowed))
                engine.advance(token)
                oracle.advance(token)
        assert indexes[1] is indexes[0]
    assert rejected_in == set(PHASES)


@pytest.mark.parametrize("values", [("0.5",), ("0.9", "0.5")])
def test_a_run_ends_at_the_confidence_value(values):
    """From the last line start a run takes the confidence section up to
    its value and no further: a lone value is decided, taken and ends the
    run; two are a choice, where the run stops.  Only the value's EOL and
    EOS follow, as one run."""
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = vocab_with_confidence(full, values)
    engine = ConstraintEngine(full, vocab)
    engine.take_run()
    assert engine.at_choice and engine.phase == "node-line-start"
    engine.advance(TOK_EDGES)
    section = [TOK_EOL, TOK_CONFIDENCE, TOK_EOL]
    if len(values) == 1:
        assert engine.take_run() == [*section, vocab.id_of("0.5")]
        assert not engine.at_choice and engine.confidence == 0.5
    else:
        assert engine.take_run() == section
        assert engine.at_choice and engine.confidence is None
        engine.advance(vocab.id_of("0.9"))
        assert engine.confidence == 0.9
    assert not engine.done
    assert engine.take_run() == [TOK_EOL, EOS]
    assert engine.done and engine.take_run() == []


def test_a_vocabulary_without_confidence_values_is_a_dead_end():
    """A public engine over a vocabulary with no confidence value takes the
    confidence section up to the value; there ``take_run`` and ``choose``
    both raise, so the dead end is reported, never passed over."""
    full = MemoryGraph((Node("N1", "amber"),), ())
    vocab = build_vocabulary(["N1", "amber"])
    engine = ConstraintEngine(full, vocab)
    engine.take_run()
    engine.advance(TOK_EDGES)
    assert engine.take_run() == [TOK_EOL, TOK_CONFIDENCE, TOK_EOL]
    assert not engine.at_choice and engine.phase == "confidence-value"
    with pytest.raises(DecodeError, match="dead end in phase 'confidence-value'"):
        engine.take_run()
    with pytest.raises(DecodeError, match="dead end in phase 'confidence-value'"):
        engine.choose(np.zeros(len(vocab)))


def test_forced_steps_skip_the_output_projection(monkeypatch):
    """Logits are computed only on steps with more than one legal token."""
    rng = np.random.default_rng(6)
    full = with_duplicate_edges(random_graph(rng, min_nodes=5, max_extra_edges=10))
    vocab = vocab_with_confidence(full)
    model = init_retriever(len(vocab), 8, 4, 3, seed=1)
    projections = []
    original = RetrieverModel.logits

    def counted(self, state):
        projections.append(state)
        return original(self, state)

    monkeypatch.setattr(RetrieverModel, "logits", counted)
    sub = generate_subgraph(model, full, rng.standard_normal(4), rng.standard_normal(3), vocab)
    engine = ConstraintEngine(full, vocab)
    choices = 0
    for token in list(linearize_evidence(sub, vocab))[1:]:
        choices += len(engine.allowed_tokens()) > 1
        engine.advance(token)
    assert 0 < len(projections) == choices


def test_decode_lists_the_legal_set_only_at_choices_inside_a_line(monkeypatch):
    """A decode calls allowed_tokens() on no forced step and on no line-start
    choice: only where an edge line or the confidence value branches."""
    rng = np.random.default_rng(6)
    full = with_duplicate_edges(random_graph(rng, min_nodes=5, max_extra_edges=10))
    vocab = vocab_with_confidence(full)
    model = init_retriever(len(vocab), 8, 4, 3, seed=1)
    listed = []
    original = ConstraintEngine.allowed_tokens

    def counted(self):
        allowed = original(self)
        listed.append((self.phase, len(allowed)))
        return allowed

    monkeypatch.setattr(ConstraintEngine, "allowed_tokens", counted)
    sub = generate_subgraph(model, full, rng.standard_normal(4), rng.standard_normal(3), vocab)
    monkeypatch.undo()
    engine = ConstraintEngine(full, vocab)
    line_start_choices = inner_choices = 0
    for token in list(linearize_evidence(sub, vocab))[1:]:
        if len(engine.allowed_tokens()) > 1:
            if engine.phase in ("node-line-start", "edge-line-start"):
                line_start_choices += 1
            else:
                inner_choices += 1
        engine.advance(token)
    assert line_start_choices > 0
    assert len(listed) == inner_choices > 0
    assert all(phase in ("edge-line", "confidence-value") and width > 1 for phase, width in listed)


def test_a_lone_decode_takes_each_run_in_one_engine_call(monkeypatch):
    """A lone decode runs one one-row transition per token after BOS up to
    the confidence value, and advances its engine only at choices and
    through runs, fewer times than it takes tokens; it calls neither
    ``cell`` nor ``allowed_tokens()`` outside a choice inside a line.  A
    run tells whether it stopped at a choice, so no ``take_run`` call comes
    back empty."""
    rng = np.random.default_rng(7)
    full = with_duplicate_edges(random_graph(rng, min_nodes=5, max_extra_edges=10))
    vocab = vocab_with_confidence(full)
    model = init_retriever(len(vocab), 8, 4, 3, seed=2)
    calls = {"transition": 0, "advance": 0, "cell": 0, "allowed_tokens": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in ((RetrieverModel, "transition"), (RetrieverModel, "cell"),
                      (ConstraintEngine, "advance"), (ConstraintEngine, "allowed_tokens")):
        counting(cls, name)
    runs = []
    take_run = ConstraintEngine.take_run

    def recorded(self):
        run = take_run(self)
        runs.append(tuple(run))  # as returned; the decode queues the list
        return run

    monkeypatch.setattr(ConstraintEngine, "take_run", recorded)
    sub = generate_subgraph(model, full, rng.standard_normal(4), rng.standard_normal(3), vocab)
    monkeypatch.undo()
    tokens = list(linearize_evidence(sub, vocab))[1:-2]  # up to the confidence value
    engine = ConstraintEngine(full, vocab)
    choices = line_choices = 0
    for token in tokens:
        allowed = engine.allowed_tokens()
        choices += len(allowed) > 1
        line_choices += len(allowed) > 1 and engine.phase in ("edge-line", "confidence-value")
        engine.advance(token)
    assert calls["transition"] == len(tokens)
    assert 0 < calls["advance"] < len(tokens)
    assert calls["cell"] == 0
    assert calls["allowed_tokens"] == line_choices
    # Each token came from one non-empty run or was chosen.
    assert all(runs)
    assert sum(map(len, runs)) + choices == len(tokens)


def test_ids_outside_the_vocabulary_are_rejected_in_every_phase():
    """Negative and too-large ids raise DecodeError and leave the state
    unchanged; -1 would wrap to N1, the last id, which is legal at both
    line starts."""
    full = MemoryGraph((Node("N2", "calm"), Node("N1", "amber")), (Edge("N1", "N2", "feeds"),))
    vocab = build_vocabulary(["calm", "amber", "feeds", "0.5", "N2", "N1"])
    assert vocab.id_of("N1") == len(vocab) - 1
    engine = ConstraintEngine(full, vocab)
    phases = set()
    for token in list(linearize_evidence(EvidenceSubgraph(full, 0.5), vocab))[1:]:
        allowed = engine.allowed_tokens()
        for bad in (-1, -len(vocab), len(vocab)):
            with pytest.raises(DecodeError, match=f"token id {bad} not legal"):
                engine.advance(bad)
            assert engine.allowed_tokens() == allowed
        phases.add(engine.phase)
        engine.advance(token)
    assert phases == set(PHASES)
