"""Property-based tests over random graphs, mutations, decodes and
training settings."""
import copy
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from memalign.checkpoint import load_checkpoint
from memalign.contrastive import AlignConfig, infonce_batch, size_alignment, unit_rows

from memalign.graphs import (
    EVIDENCE_HEADER,
    FULL_HEADER,
    Edge,
    EvidenceSubgraph,
    GraphFormatError,
    MemoryGraph,
    Node,
    emit,
    emit_evidence,
    format_confidence,
    parse_evidence,
    parse_full_graph,
    scan,
    subset_violations,
    verify_subset,
)
from memalign.retriever import (
    DistillConfig,
    SmoothedTeacher,
    distill_loss,
    init_retriever,
    teacher_distributions,
)
from memalign.decoding import ConstraintEngine, DecodeError, decode_many, generate_subgraph
from memalign.tokenization import (
    LinearizationError,
    delinearize,
    graph_surface_words,
    linearize,
    linearize_evidence,
)
from memalign.vocab import TOK_CONFIDENCE, TOK_EDGES, TOK_EOL, build_vocabulary
from test_cli import assert_refused_before_any_write, run_training
from util import (
    WORDS,
    RELATION_WORDS,
    ScanEngine,
    mutate_subgraph,
    reference_delinearize,
    reference_parse_evidence,
    reference_parse_full_graph,
    reference_verify_subset,
)

word = st.sampled_from(WORDS)
phrase = st.lists(word, min_size=1, max_size=3).map(" ".join)
relation = st.lists(st.sampled_from(RELATION_WORDS), min_size=1, max_size=2).map(" ".join)


@st.composite
def graphs(draw, min_nodes=0, max_nodes=6):
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = tuple(Node(f"N{i+1}", draw(phrase)) for i in range(n))
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda t: t[0] != t[1]
                )
            )
            edges.append(Edge(f"N{i}", f"N{j}", draw(relation)))
    return MemoryGraph(nodes, tuple(edges))


@st.composite
def subset_pairs(draw):
    full = draw(graphs(min_nodes=1))
    keep = {n.id for n in full.nodes if draw(st.booleans())}
    nodes = tuple(n for n in full.nodes if n.id in keep)
    edges = tuple(
        e for e in full.edges if e.source in keep and e.target in keep
    )
    conf = draw(st.integers(0, 100)) / 100.0
    return full, EvidenceSubgraph(MemoryGraph(nodes, edges), conf)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_parse_emit_identity(g):
    assert parse_full_graph(emit(g)) == g


@given(subset_pairs())
@settings(max_examples=150, deadline=None)
def test_evidence_round_trip_and_acceptance(pair):
    full, sub = pair
    assert parse_evidence(emit_evidence(sub)) == sub
    assert verify_subset(sub, full).accepted


@given(subset_pairs())
@settings(max_examples=150, deadline=None)
def test_token_round_trip(pair):
    _, sub = pair
    vocab = build_vocabulary(graph_surface_words(sub.graph, sub.confidence))
    assert delinearize(linearize_evidence(sub, vocab), vocab) == sub


@given(subset_pairs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_mutation_completeness(pair, seed):
    full, sub = pair
    if not sub.graph.nodes:
        return
    rng = np.random.default_rng(seed)
    mutant, expected_kind = mutate_subgraph(sub, full, rng)
    report = verify_subset(mutant, full)
    assert not report.accepted
    assert expected_kind in {v.kind for v in report.violations}
    # The dangling-endpoint mutation also adds an unknown node; all other
    # mutations must report exactly the expected kind.
    if expected_kind != "dangling-endpoint":
        assert {v.kind for v in report.violations} == {expected_kind}


@given(graphs(min_nodes=1), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_constrained_decode_always_verifies(full, seed):
    words = list(graph_surface_words(full))
    words.append("0.75")
    vocab = build_vocabulary(words)
    model = init_retriever(len(vocab), 8, 4, 3, seed=seed)
    rng = np.random.default_rng(seed)
    sub = generate_subgraph(
        model, full, rng.standard_normal(4), rng.standard_normal(3), vocab
    )
    assert verify_subset(sub, full).accepted


# Words that read as structure, and separators a parsed line keeps inside
# a description or relation.
IRREGULAR_WORDS = (
    *WORDS[:4], "->", ":", "<eol>", "<bos>", "<eos>", "<unk>", "[CONFIDENCE]", "<EDGES>",
)
SEPARATORS = (" ", "  ", "\t", " \t ", "   ")


@st.composite
def irregular_text(draw):
    words = draw(st.lists(st.sampled_from(IRREGULAR_WORDS), min_size=1, max_size=4))
    text = words[0]
    for w in words[1:]:
        text += draw(st.sampled_from(SEPARATORS)) + w
    return text


@st.composite
def irregular_graphs(draw):
    n = draw(st.integers(1, 5))
    nodes = tuple(Node(f"N{i+1}", draw(irregular_text())) for i in range(n))
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 5))):
            i, j = draw(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])
            )
            edges.append(Edge(f"N{i}", f"N{j}", draw(irregular_text())))
    return MemoryGraph(nodes, tuple(edges))


@given(irregular_graphs(), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_decode_verifies_with_irregular_whitespace_and_reserved_words(full, seed, greedy):
    assert parse_full_graph(emit(full)) == full  # the parser accepts it
    vocab = build_vocabulary([*graph_surface_words(full), "0.75", "0.25"])
    model = init_retriever(len(vocab), 8, 4, 3, seed=seed)
    if greedy:  # against closing a section: every line gets decoded
        model.out_bias[[TOK_EDGES, TOK_CONFIDENCE]] = -1e3
    rng = np.random.default_rng(seed)
    sub = generate_subgraph(
        model, full, rng.standard_normal(4), rng.standard_normal(3), vocab
    )
    assert verify_subset(sub, full).accepted
    assert parse_evidence(emit_evidence(sub)) == sub
    if greedy:
        assert len(sub.graph.nodes) == len(full.nodes)
        assert len(sub.graph.edges) == len(full.edges)


# Words no vocabulary below is built from.
UNSEEN_WORDS = ("violet", "beacon", "umbral")


@st.composite
def unseen_cases(draw):
    """A graph with node ids from N1 to N98 and words some of which are
    unseen, and the words of its vocabulary: a random part of its own."""
    ids = draw(st.lists(st.integers(1, 98), min_size=1, max_size=6, unique=True))
    text = st.lists(st.sampled_from(WORDS[:4] + UNSEEN_WORDS), min_size=1, max_size=3)
    nodes = tuple(Node(f"N{i}", " ".join(draw(text))) for i in ids)
    edges = []
    if len(ids) >= 2:
        for _ in range(draw(st.integers(0, 5))):
            a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            edges.append(Edge(f"N{a}", f"N{b}", " ".join(draw(text))))
    full = MemoryGraph(nodes, tuple(edges))
    seen = [w for w in graph_surface_words(full) if w not in UNSEEN_WORDS and draw(st.booleans())]
    return full, seen


@given(unseen_cases(), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_decode_verifies_with_unseen_words_and_node_ids(case, seed, greedy):
    """Words and node ids the vocabulary lacks read as UNK; decoding never
    raises, and lines that share every token (node ids colliding on UNK)
    still decode as distinct nodes and edges."""
    full, seen = case
    vocab = build_vocabulary([*seen, "0.75", "0.25"])
    model = init_retriever(len(vocab), 8, 4, 3, seed=seed)
    if greedy:  # against closing a section: every line gets decoded
        model.out_bias[[TOK_EDGES, TOK_CONFIDENCE]] = -1e3
    rng = np.random.default_rng(seed)
    request = (full, rng.standard_normal(4), rng.standard_normal(3))
    sub = generate_subgraph(model, *request, vocab)
    assert verify_subset(sub, full).accepted
    assert parse_evidence(emit_evidence(sub)) == sub
    assert decode_many(model, vocab, [request, request]) == [sub, sub]
    if greedy:
        assert sorted(sub.graph.nodes, key=full.nodes.index) == list(full.nodes)
        assert len(sub.graph.edges) == len(full.edges)


@st.composite
def engine_cases(draw, min_confidences=0):
    """A graph with irregular words, possibly duplicated edges, and its
    vocabulary: all its words, or some of them, so that node ids and other
    words left out collide on UNK, and ``min_confidences`` to three
    confidence values."""
    full = draw(irregular_graphs())
    if full.edges and draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(full.edges), min_size=1, max_size=3))
        full = MemoryGraph(full.nodes, full.edges + tuple(extra))
    words = [*graph_surface_words(full)]
    if draw(st.booleans()):
        words = [w for w in words if draw(st.booleans())]
    words += draw(
        st.lists(
            st.sampled_from(("0.25", "0.75", "1")), min_size=min_confidences, max_size=3,
            unique=True,
        )
    )
    return full, build_vocabulary(words)


# Logits with many ties, and with every legal logit -inf at times.
LOGIT_VALUES = (-np.inf, -1.0, 0.0, 0.0, 1.0, 1.0)


def engine_copy(engine: ConstraintEngine) -> ConstraintEngine:
    """An independent copy of a decode's state, sharing its index."""
    return copy.deepcopy(engine, {id(engine.index): engine.index, id(engine.vocab): engine.vocab})


def engine_state(engine: ConstraintEngine) -> tuple:
    """Everything a later step reads and the record an engine keeps."""
    pending = {first: tuple(lines) for first, lines in engine.pending.items()}
    return (engine.phase, engine.pos, tuple(engine.candidates), pending, engine.mask.tobytes(),
            engine.done, tuple(engine.completed), engine.confidence)


def assert_pending_is_the_mask(engine: ConstraintEngine) -> None:
    """``pending`` holds exactly the mask's line-start tokens: the mask
    less the section's closing token, ``<EDGES>`` or ``[CONFIDENCE]``,
    which starts no line."""
    starts = set(np.flatnonzero(engine.mask).tolist()) - {TOK_EDGES, TOK_CONFIDENCE}
    assert set(engine.pending) == starts


@given(engine_cases(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_engine_step_answers_agree_with_the_legal_set(case, seed, data):
    """At every step of a random legal walk: the legal set matches the scan
    oracle; ``take_run()`` takes the tokens that advancing the one legal
    token of ``allowed_tokens()``, one at a time, takes until a choice, the
    confidence value, EOS or a dead end, leaves the state that leaves, and
    ends with ``None`` exactly where the oracle then has a choice;
    ``choose(logits)`` takes the subset argmax, leaving the state that
    advancing it leaves; and ``advance`` refuses an id, in or out of the
    vocabulary, exactly when it is not in ``allowed_tokens()``, leaving the
    state unchanged.  ``pending`` holds exactly the mask's line-start
    tokens, so a run stops at a line start only when a line is pending."""
    full, vocab = case
    rng = np.random.default_rng(seed)
    engine = ConstraintEngine(full, vocab)
    oracle = ScanEngine(full, vocab)
    while not engine.done:
        assert_pending_is_the_mask(engine)
        allowed = engine.allowed_tokens()
        assert allowed == sorted(oracle.allowed())
        if not allowed:
            with pytest.raises(DecodeError, match="dead end"):
                engine.take_run()
            return
        runner, stepper = engine_copy(engine), engine_copy(engine)
        run = runner.take_run()
        decided = run[:-1] if run and run[-1] is None else run
        steps: list[int] = []
        while not stepper.done and len(stepper.allowed_tokens()) == 1:
            valued = stepper.phase == "confidence-value"
            steps += stepper.allowed_tokens()
            stepper.advance(steps[-1])
            if valued:
                break
        assert decided == steps
        assert engine_state(runner) == engine_state(stepper)
        assert_pending_is_the_mask(runner)
        if runner.phase in ("node-line-start", "edge-line-start"):
            assert runner.pending
        ahead = copy.deepcopy(oracle)
        for token in decided:
            assert ahead.allowed() == {token}
            ahead.advance(token)
        assert (run[-1:] == [None]) == (len(ahead.allowed()) > 1)
        logits = rng.choice(LOGIT_VALUES, size=len(vocab))
        chooser, advancer = engine_copy(engine), engine_copy(engine)
        best = allowed[logits[allowed].argmax()]
        assert chooser.choose(logits) == best
        advancer.advance(best)
        assert engine_state(chooser) == engine_state(advancer)
        before = engine_state(engine)
        for token in range(-2, len(vocab) + 2):
            if token in allowed:
                engine_copy(engine).advance(token)
            else:
                with pytest.raises(DecodeError, match="not legal"):
                    engine.advance(token)
                assert engine_state(engine) == before
        token = data.draw(st.sampled_from(allowed))
        engine.advance(token)
        oracle.advance(token)


@given(engine_cases(min_confidences=1), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_decode_takes_each_full_graph_line_at_most_once(case, seed, greedy):
    """Over graphs the parser accepts, with duplicated edges, node ids that
    collide on UNK and words spelled ``<eol>``: the evidence's nodes and
    edges, as multisets, are contained in the full graph's, so a decode
    takes at most the full graph's linearization and the 4 tokens of the
    confidence section.  Against closing a section it takes exactly
    that."""
    full, vocab = case
    assert parse_full_graph(emit(full)) == full  # the parser accepts it
    model = init_retriever(len(vocab), 8, 4, 3, seed=seed)
    if greedy:  # against closing a section: every line gets decoded
        model.out_bias[[TOK_EDGES, TOK_CONFIDENCE]] = -1e3
    rng = np.random.default_rng(seed)
    sub = generate_subgraph(model, full, rng.standard_normal(4), rng.standard_normal(3), vocab)
    nodes, edges = Counter(sub.graph.nodes), Counter(sub.graph.edges)
    assert nodes <= Counter(full.nodes) and edges <= Counter(full.edges)
    # Every word known, to count the tokens.
    known = build_vocabulary([*graph_surface_words(full), format_confidence(sub.confidence)])
    length, bound = len(linearize_evidence(sub, known)), len(linearize(full, known)) + 4
    assert length == bound if greedy else length <= bound


# -- the scanning parser against the reference parser ------------------------

MARKERS = ("[FULL_GRAPH]", "[EVIDENCE_SUBGRAPH]", "<NODES>", "<EDGES>", "[CONFIDENCE]")
BLANKS = ("", " ", "\t", " \t ", "\r", "\x0b")
COLONS = (":", ":: ", ": : ", ":\t", " : ", ": ", ":  ")
ARROWS = ("->", " ->", "-> ", " -> -> ", "  -> ", " => ", " -> ")
IDS = ("N0", "N01", "n1", "N1x", "N", "N1:", "N1 ", "N2", "N9")
CONFIDENCES = ("0.5", "1", "0", "1.0000001", "-0.1", "nan", "inf", "two", "0.5 0.5", "1e-3", "1_0")
OTHER_LINES = ("N1: x: y", "N1 -> N2: r -> s", "N2 -> N1: r", "N1 -> N9: r", "N9 -> N1: r")
MUTATIONS = ("blank", "pad", "crlf", "duplicate", "delete", "cut", "colon", "arrow", "id",
             "marker", "second-confidence", "line")


@st.composite
def mutated_documents(draw):
    """The document of a random graph, in either format, after a few line
    mutations and possibly a truncation."""
    graph = draw(graphs())
    mode = draw(st.sampled_from(("full", "evidence")))
    confidence = draw(st.integers(0, 100)) / 100.0 if mode == "evidence" else None
    lines = emit(graph, mode, confidence).split("\n")
    if mode == "evidence" and draw(st.booleans()):
        lines[-2] = draw(st.sampled_from(CONFIDENCES))  # the value line
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        mutation = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if mutation == "blank":
            lines.insert(i, draw(st.sampled_from(BLANKS)))
        elif mutation == "pad":
            lines[i] = draw(st.sampled_from(BLANKS)) + line + draw(st.sampled_from(BLANKS))
        elif mutation == "crlf":
            lines = [raw + "\r" for raw in lines]
        elif mutation == "duplicate":
            lines.insert(i, line)
        elif mutation == "delete":
            del lines[i]
        elif mutation == "cut":
            del lines[i:]
        elif mutation == "colon":
            lines[i] = line.replace(": ", draw(st.sampled_from(COLONS)), draw(st.integers(1, 2)))
        elif mutation == "arrow":
            lines[i] = line.replace(" -> ", draw(st.sampled_from(ARROWS)), 1)
        elif mutation == "id":
            lines[i] = line.replace(f"N{draw(st.integers(1, 3))}", draw(st.sampled_from(IDS)), 1)
        elif mutation == "marker":
            lines.insert(i, draw(st.sampled_from(MARKERS)))
        elif mutation == "second-confidence":
            lines.insert(i, draw(st.sampled_from(CONFIDENCES)))
        else:  # a node or edge line of another document
            lines.insert(i, draw(st.sampled_from(OTHER_LINES)))
    text = "\n".join(lines)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return exc.kind, exc.line, str(exc)


@given(mutated_documents())
@settings(max_examples=500, deadline=None)
def test_parsers_agree_with_reference_parser(text):
    assert _outcome(parse_full_graph, text) == _outcome(reference_parse_full_graph, text)
    assert _outcome(parse_evidence, text) == _outcome(reference_parse_evidence, text)


@st.composite
def mutated_subset_pairs(draw):
    """A full graph and evidence that is a subset of it or mutated away from
    one, or drawn independently."""
    full, sub = draw(subset_pairs())
    if draw(st.booleans()):
        return full, EvidenceSubgraph(draw(graphs()), sub.confidence)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        if sub.graph.nodes:
            sub, _ = mutate_subgraph(sub, full, rng)
    return full, sub


@given(mutated_subset_pairs())
@settings(max_examples=300, deadline=None)
def test_subset_check_agrees_with_reference(pair):
    full, sub = pair
    expected = reference_verify_subset(sub, full)
    assert verify_subset(sub, full) == expected
    # The corpus loader's path: the same check over scanned documents.
    full_nodes, full_edges, _ = scan(emit(full), FULL_HEADER)
    sub_nodes, sub_edges, _ = scan(emit_evidence(sub), EVIDENCE_HEADER)
    violations = subset_violations(sub_nodes.items(), sub_edges, full_nodes, full_edges)
    assert tuple(violations) == expected.violations


# -- the line reader against the reference token-stream parser ---------------


@st.composite
def mutated_streams(draw):
    """The token stream of a random subgraph, with or without its confidence
    section, after a few deletions, insertions, substitutions, duplicated
    slices and repeated lines; inserted and substituted ids may lie outside
    the vocabulary."""
    full, sub = draw(subset_pairs())
    vocab = build_vocabulary(graph_surface_words(full, sub.confidence))
    confidence = sub.confidence if draw(st.booleans()) else None
    tokens = list(linearize(sub.graph, vocab, confidence))
    # The grammar turns on the reserved ids 0-9, so they get a branch of
    # their own beside any in-range id and the ids outside the vocabulary.
    ids = st.one_of(
        st.integers(0, 9), st.integers(0, len(vocab) - 1), st.sampled_from((-12, -1, len(vocab)))
    )
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(("delete", "insert", "substitute", "duplicate", "line")))
        i = draw(st.integers(0, len(tokens)))
        if mutation == "insert":
            tokens.insert(i, draw(ids))
        elif i == len(tokens):
            continue
        elif mutation == "delete":
            del tokens[i]
        elif mutation == "substitute":
            tokens[i] = draw(ids)
        elif mutation == "duplicate":
            j = draw(st.integers(i + 1, len(tokens)))
            k = draw(st.integers(0, len(tokens)))
            tokens[k:k] = tokens[i:j]
        else:  # one whole line, repeated in place
            cuts = [0, *(e + 1 for e, tok in enumerate(tokens) if tok == TOK_EOL), len(tokens)]
            m = draw(st.integers(0, len(cuts) - 2))
            tokens[cuts[m + 1] : cuts[m + 1]] = tokens[cuts[m] : cuts[m + 1]]
    return tuple(tokens), vocab


def _stream_outcome(parse, tokens, vocab):
    try:
        return parse(tokens, vocab)
    except LinearizationError:
        return "rejected"


@pytest.mark.reference
@given(mutated_streams())
@settings(max_examples=1000, deadline=None)
def test_delinearize_agrees_with_reference_parser(case):
    tokens, vocab = case
    if all(0 <= tok < len(vocab) for tok in tokens):
        expected = _stream_outcome(reference_delinearize, tokens, vocab)
        assert _stream_outcome(delinearize, tokens, vocab) == expected
    else:
        with pytest.raises(LinearizationError):
            delinearize(tokens, vocab)


# Finite entries whose gaps stay representable: a logit gap near the float64
# maximum overflows the loss itself (it is about twice the largest gap).
BOUNDED = st.floats(-1e300, 1e300)


@st.composite
def distill_cases(draw):
    """Student logits (steps, V) and one gold token per step."""
    steps, vocab = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    logits = draw(arrays(np.float64, (steps, vocab), elements=BOUNDED))
    targets = draw(st.lists(st.integers(0, vocab - 1), min_size=steps, max_size=steps))
    return logits, targets


@given(distill_cases(), st.floats(0.0, 0.5))
@settings(max_examples=400, deadline=None)
def test_distill_loss_and_gradient_are_finite_for_finite_logits(case, epsilon):
    logits, targets = case
    teacher = teacher_distributions(targets, epsilon, logits.shape[1])
    loss, grad = distill_loss(teacher, logits, DistillConfig(), gold_tokens=targets)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


@given(distill_cases(), st.floats(0.0, 0.5))
@settings(max_examples=400, deadline=None)
def test_the_closed_form_teacher_gives_the_bytes_of_distill_loss_for_any_finite_logits(
    case, epsilon
):
    logits, targets = case
    teacher = teacher_distributions(targets, epsilon, logits.shape[1])
    config = DistillConfig()
    want_loss, want_grad = distill_loss(teacher, logits, config, gold_tokens=targets)
    loss, grad = SmoothedTeacher(epsilon, logits.shape[1]).distill(
        logits, config, np.asarray(targets), np.array([len(targets)])
    )
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


@st.composite
def cell_cases(draw):
    """A model, input projections (2, B, d_m) with any finite entries and
    states (B, d_m) in [-1, 1]."""
    d_m, batch = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    model = init_retriever(3, d_m, 2, 2, seed=draw(st.integers(0, 2**32 - 1)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x_proj = draw(arrays(np.float64, (2, batch, d_m), elements=finite))
    states = draw(arrays(np.float64, (batch, d_m), elements=st.floats(-1.0, 1.0)))
    return model, x_proj, states


@given(cell_cases())
@settings(max_examples=400, deadline=None)
def test_transition_keeps_states_in_the_unit_box(case):
    """s' = (s + c + g (c - s)) / 2 with g, c in [-1, 1] is a convex mix of
    s and c: finite, and within four rounding errors of the unit box."""
    model, x_proj, states = case
    new = model.transition(x_proj, states)
    assert np.all(np.isfinite(new))
    assert np.all(np.abs(new) <= 1.0 + 4 * np.finfo(np.float64).eps)


@st.composite
def infonce_cases(draw, elements=BOUNDED):
    """Anchor rows (B, d), target rows (B, d) and negatives (B, K, d)."""
    b, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return (
        draw(arrays(np.float64, (b, d), elements=elements)),
        draw(arrays(np.float64, (b, d), elements=elements)),
        draw(arrays(np.float64, (b, k, d), elements=elements)),
    )


@given(infonce_cases(), st.floats(0.01, 10.0))
@settings(max_examples=400, deadline=None)
def test_infonce_losses_and_gradients_are_finite_for_finite_rows(case, tau):
    anchors, targets, negatives = case
    losses, grads = infonce_batch(unit_rows(anchors), targets, unit_rows(negatives), tau)
    assert np.all(np.isfinite(losses))
    assert np.all(np.isfinite(grads))


# Entries of magnitude 0.25 to 1: every row keeps a norm far above the
# zero-row threshold at the smallest scale drawn.
UNIT_SCALE = st.one_of(st.floats(-1.0, -0.25), st.floats(0.25, 1.0))
SCALE = st.floats(1e-6, 1e300)


@given(infonce_cases(UNIT_SCALE), SCALE, SCALE, SCALE)
@settings(max_examples=300, deadline=None)
def test_infonce_losses_are_invariant_to_the_scale_of_the_rows(case, a, t, n):
    anchors, targets, negatives = case
    losses, grads = infonce_batch(unit_rows(anchors), targets, unit_rows(negatives), 0.1)
    scaled_losses, scaled_grads = infonce_batch(
        unit_rows(anchors * a), targets * t, unit_rows(negatives * n), 0.1
    )
    np.testing.assert_allclose(scaled_losses, losses, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scaled_grads * t, grads, rtol=1e-12, atol=1e-12)


# The float settings of each training stage, and the integer settings that
# keep a run on a six-instance corpus short.
TRAINING_FLOATS = {
    "train-align": (
        "[alignment]\nNegative sample size = 2\nBatch size = 2\nEpochs = 2\nHoldout = 2\n",
        ("Learning rate", "Weight decay", "Warmup ratio",
         "Contrastive (InfoNCE) temperature", "MSE loss (optional)"),
    ),
    "train-retriever": (
        "[distillation]\nEpochs = 2\nPer-device batch size = 4\n",
        ("Learning rate", "Weight decay", "Warmup", "KL weight", "KL temperature",
         "CE weight", "Teacher smoothing"),
    ),
}
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 1e-8, 0.5, 1.0, 2.0, 1e10, 1e200, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
training_settings = st.one_of(
    *(
        st.tuples(st.just(stage), st.dictionaries(st.sampled_from(keys), EXTREME_FLOATS, min_size=1))
        for stage, (_, keys) in TRAINING_FLOATS.items()
    )
)


def _refuse_constant(name: str):
    raise ValueError(f"report holds {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(training_settings)
@example(("train-align", {"Learning rate": 1e200}))
@example(("train-align", {"Contrastive (InfoNCE) temperature": 1e-320}))
@example(("train-align", {"MSE loss (optional)": 1e308}))
@example(("train-retriever", {"KL weight": 1e308}))
@example(("train-retriever", {"Learning rate": 1e200}))
@example(("train-retriever", {"KL temperature": 1e-320}))
@settings(max_examples=150, deadline=None)
def test_float_settings_train_to_finite_artifacts_or_are_refused(case):
    """Any finite float setting either trains to a finite checkpoint and a
    report of finite JSON numbers, or exits 1 with one error line before
    anything is written."""
    stage, chosen = case
    base, _ = TRAINING_FLOATS[stage]
    body = "[engine]\nd_m = 16\nd_h = 32\n\n" + base
    body += "".join(f"{key} = {value!r}\n" for key, value in chosen.items())
    with tempfile.TemporaryDirectory() as directory:
        code, err, out = run_training(Path(directory), stage, body)
        if code == 1:
            assert_refused_before_any_write(code, err, out)
            return
        assert code == 0, err
        (checkpoint,), (report,) = out.glob("*.ckpt"), out.glob("*_report.json")
        for name, array in load_checkpoint(checkpoint).items():
            assert np.isfinite(array).all(), name
        json.loads(report.read_text(), parse_constant=_refuse_constant)


@given(
    st.integers(1, 400), st.integers(1, 64), st.integers(1, 200), st.integers(0, 600)
)
@settings(max_examples=500, deadline=None)
def test_sizing_keeps_the_holdout_of_every_run_the_one_batch_cap_accepted(
    pool, batch, negatives, holdout
):
    """The CLI used to cap the holdout so that one batch was left, and the
    config then refused a training pool with fewer than ``negatives + 1``
    rows.  Every run that accepted gets the same holdout from
    ``size_alignment``, whose cap also leaves the negatives their rows."""
    assume(holdout != 1)
    spare = pool - batch
    old = min(holdout, spare if spare >= 2 else 0)
    assume(pool - old >= max(batch, negatives + 1))
    config = AlignConfig(negatives=negatives, batch_size=batch, holdout=holdout)
    assert size_alignment(config, pool, 1).holdout == old
