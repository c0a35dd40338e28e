"""Shared test helpers: random graph generation, byte mutations of a file,
a scan-based reference constraint engine, a one-request reference
decoder, finite differences, the reference graph parser and subset
check, the reference token-stream parser, a softmax, the whole-batch
reference of the retriever's backward pass, and the reference corpus
record validator."""
from __future__ import annotations

import math
import re

import numpy as np
from hypothesis import strategies as st

from memalign.corpus import ADJECTIVES, NOUNS, RELATIONS, CorpusError, CorpusInstance
from memalign.decoding import ConstraintEngine, DecodeError, GraphIndex
from memalign.graphs import (
    CONFIDENCE_MARKER,
    EDGES_MARKER,
    EVIDENCE_HEADER,
    FULL_HEADER,
    NODES_MARKER,
    Edge,
    EvidenceSubgraph,
    GraphFormatError,
    MemoryGraph,
    Node,
    VerificationReport,
    Violation,
    is_node_id,
    scan,
    subset_violations,
)
from memalign.retriever import RetrieverModel
from memalign.tokenization import LinearizationError, edge_line_tokens, node_line_tokens
from memalign.vocab import (
    BOS,
    EOS,
    TOK_ARROW,
    TOK_COLON,
    TOK_CONFIDENCE,
    TOK_EDGES,
    TOK_EOL,
    TOK_HEADER,
    TOK_NODES,
    Vocabulary,
)

WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "frost", "gale", "haven",
    "iris", "jade", "krill", "lumen", "moss", "noble", "onyx", "pearl",
    "quartz", "raven", "slate", "tidal", "umber", "vexed", "wren", "xenon",
)

RELATION_WORDS = ("binds", "carries", "drives", "joins", "links", "marks")


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` with one to three bytes replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "replace":
            data[index] = byte
        elif kind == "insert":
            data.insert(index, byte)
        else:
            del data[index]
    return bytes(data)


def random_graph(
    rng: np.random.Generator,
    max_nodes: int = 8,
    max_extra_edges: int = 6,
    min_nodes: int = 0,
) -> MemoryGraph:
    """A random well-formed graph with single-spaced descriptions."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    nodes = tuple(
        Node(
            f"N{i + 1}",
            " ".join(rng.choice(WORDS, size=int(rng.integers(1, 4)))),
        )
        for i in range(n)
    )
    edges = []
    if n >= 2:
        for _ in range(int(rng.integers(0, max_extra_edges + 1))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.append(
                Edge(
                    f"N{int(a) + 1}",
                    f"N{int(b) + 1}",
                    " ".join(rng.choice(RELATION_WORDS, size=int(rng.integers(1, 3)))),
                )
            )
    return MemoryGraph(nodes, tuple(edges))


def memory_graph(rng: np.random.Generator, n_nodes: int, n_edges: int) -> MemoryGraph:
    """A long-memory-shaped graph over the corpus word pools: ``n_edges``
    distinct directed node pairs in sorted order."""
    nodes = tuple(
        Node(f"N{i + 1}", f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}")
        for i in range(n_nodes)
    )
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_edges:
        a, b = (int(x) for x in rng.integers(n_nodes, size=2))
        if a != b:
            pairs.add((a, b))
    edges = tuple(
        Edge(f"N{a + 1}", f"N{b + 1}", str(rng.choice(RELATIONS))) for a, b in sorted(pairs)
    )
    return MemoryGraph(nodes, edges)


def random_subgraph(
    full: MemoryGraph, rng: np.random.Generator, confidence: float = 0.5
) -> EvidenceSubgraph:
    """A random accepted subgraph of ``full`` (subset of nodes and edges)."""
    keep = {
        node.id for node in full.nodes if rng.random() < 0.7
    }
    nodes = tuple(n for n in full.nodes if n.id in keep)
    edges = tuple(
        e
        for e in full.edges
        if e.source in keep and e.target in keep and rng.random() < 0.8
    )
    return EvidenceSubgraph(MemoryGraph(nodes, edges), confidence)


def mutate_subgraph(
    sub: EvidenceSubgraph, full: MemoryGraph, rng: np.random.Generator
) -> tuple[EvidenceSubgraph, str]:
    """One random single-field mutation; returns (mutant, expected kind)."""
    g = sub.graph
    choices = []
    if g.nodes:
        choices.extend(["node-id", "description"])
    if g.edges:
        choices.extend(["endpoint", "relation"])
    if not choices:
        raise ValueError("subgraph has nothing to mutate")
    kind = rng.choice(choices)
    if kind == "node-id":
        i = int(rng.integers(len(g.nodes)))
        used = {n.id for n in g.nodes}
        fresh = next(f"N{k}" for k in range(900, 999) if f"N{k}" not in used)
        nodes = tuple(
            Node(fresh, n.description) if j == i else n for j, n in enumerate(g.nodes)
        )
        edges = tuple(
            e for e in g.edges
            if e.source != g.nodes[i].id and e.target != g.nodes[i].id
        )
        return EvidenceSubgraph(MemoryGraph(nodes, edges), sub.confidence), "unknown-node"
    if kind == "description":
        i = int(rng.integers(len(g.nodes)))
        nodes = tuple(
            Node(n.id, n.description + " tampered") if j == i else n
            for j, n in enumerate(g.nodes)
        )
        return (
            EvidenceSubgraph(MemoryGraph(nodes, g.edges), sub.confidence),
            "description-mismatch",
        )
    if kind == "endpoint":
        i = int(rng.integers(len(g.edges)))
        used = {n.id for n in full.nodes} | {n.id for n in g.nodes}
        fresh = next(f"N{k}" for k in range(900, 999) if f"N{k}" not in used)
        nodes = g.nodes + (Node(fresh, "stray node"),)
        edges = tuple(
            Edge(fresh, e.target, e.relation) if j == i else e
            for j, e in enumerate(g.edges)
        )
        return (
            EvidenceSubgraph(MemoryGraph(nodes, edges), sub.confidence),
            "dangling-endpoint",
        )
    i = int(rng.integers(len(g.edges)))
    edges = tuple(
        Edge(e.source, e.target, e.relation + " tampered") if j == i else e
        for j, e in enumerate(g.edges)
    )
    return (
        EvidenceSubgraph(MemoryGraph(g.nodes, edges), sub.confidence),
        "relation-mismatch",
    )


def _is_confidence_word(word: str) -> bool:
    try:
        value = float(word)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


class ScanEngine:
    """Reference constraint engine: recomputes every legal token set by
    scanning all node and edge lines of the full graph.

    ``allowed()`` gives the legal next tokens as a set; ``advance(token)``
    assumes a legal token.  Lines are known by their place in the graph,
    not by their tokens: node ids that collide on UNK stay distinct
    nodes, and an edge is open once the nodes with its endpoint ids
    completed.  A line ends by its length, so an EOL word inside a line
    continues it; an EOL completes the first unused line equal to the
    tokens taken.
    """

    # Phases whose only legal token is fixed, and the phase each leads to.
    FIXED = {
        "header": (TOK_HEADER, "nodes-marker"),
        "nodes-marker": (TOK_NODES, "nodes-eol"),
        "nodes-eol": (TOK_EOL, "node-line-start"),
        "edges-eol": (TOK_EOL, "edge-line-start"),
        "confidence-eol": (TOK_EOL, "confidence-value"),
        "confidence-value-eol": (TOK_EOL, "eos"),
        "eos": (EOS, "eos"),
    }

    def __init__(self, full: MemoryGraph, vocab: Vocabulary):
        self.full = full
        word_id = vocab.input_id
        self.node_lines = [node_line_tokens(n, word_id)[:-1] for n in full.nodes]
        self.edge_lines = [edge_line_tokens(e, word_id)[:-1] for e in full.edges]
        self.confidence_ids = {
            vocab.id_of(word) for word in vocab.words if _is_confidence_word(word)
        }
        self.phase = "header"
        self.used_nodes: set[int] = set()
        self.used_edges: set[int] = set()
        self.line: list[int] = []

    def _unused(self) -> dict[int, list[int]]:
        """The lines of the current section still available, by index."""
        if self.phase.startswith("node"):
            return {i: line for i, line in enumerate(self.node_lines) if i not in self.used_nodes}
        done = {self.full.nodes[i].id for i in self.used_nodes}
        return {
            i: self.edge_lines[i]
            for i, edge in enumerate(self.full.edges)
            if i not in self.used_edges and edge.source in done and edge.target in done
        }

    def _matches(self) -> dict[int, list[int]]:
        """Unused lines whose tokens start with the current line."""
        n = len(self.line)
        return {i: line for i, line in self._unused().items() if line[:n] == self.line}

    def allowed(self) -> set[int]:
        if self.phase in self.FIXED:
            return {self.FIXED[self.phase][0]}
        if self.phase == "node-line-start":
            return {line[0] for line in self._unused().values()} | {TOK_EDGES}
        if self.phase == "edge-line-start":
            return {line[0] for line in self._unused().values()} | {TOK_CONFIDENCE}
        if self.phase in ("node-line", "edge-line"):
            n = len(self.line)
            return {line[n] if n < len(line) else TOK_EOL for line in self._matches().values()}
        return set(self.confidence_ids)  # confidence-value

    def advance(self, token: int) -> None:
        phase = self.phase
        if phase in self.FIXED:
            self.phase = self.FIXED[phase][1]
        elif phase == "node-line-start":
            self.line = [token]
            self.phase = "edges-eol" if token == TOK_EDGES else "node-line"
        elif phase == "edge-line-start":
            self.line = [token]
            self.phase = "confidence-eol" if token == TOK_CONFIDENCE else "edge-line"
        elif phase in ("node-line", "edge-line"):
            n = len(self.line)
            whole = [i for i, line in self._matches().items() if len(line) == n]
            if token == TOK_EOL and whole:
                used = self.used_nodes if phase == "node-line" else self.used_edges
                used.add(whole[0])
                self.phase = phase + "-start"
            else:
                self.line.append(token)
        else:  # confidence-value
            self.phase = "confidence-value-eol"


def count_index_builds(monkeypatch) -> list[GraphIndex]:
    """Patch ``GraphIndex.__init__`` to record every index it builds, in
    order, into the returned list."""
    built: list[GraphIndex] = []
    original = GraphIndex.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(GraphIndex, "__init__", counted)
    return built


def where_sigmoid(x: np.ndarray) -> np.ndarray:
    """The np.where form of the numerically stable sigmoid, 1 / (1 + e^-x)
    for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Probabilities along ``axis``, shifted by the maximum so no exp overflows."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def gate_parameters(model: RetrieverModel) -> tuple[np.ndarray, ...]:
    """(Wz, Wc, Uz, Uc, bz, bc): the row halves of the stacked gate arrays."""
    d_m = model.d_m
    return tuple(
        stacked[half * d_m : (half + 1) * d_m]
        for stacked in (model.w_in, model.u_rec, model.b_in)
        for half in (0, 1)
    )


def sequential_decode(
    model: RetrieverModel,
    full: MemoryGraph,
    q: np.ndarray,
    h: np.ndarray,
    vocab: Vocabulary,
) -> EvidenceSubgraph:
    """Reference greedy decode of one request: the recurrence written out
    gate by gate with one matvec per weight, logits on every step and an
    argmax over the whole vocabulary with illegal tokens masked.  Returns
    the engine's record, checked to spell every token taken, so node ids
    that collide on UNK come back as the graph's own nodes."""
    engine = ConstraintEngine(full, vocab)
    if not vocab.confidence_ids:
        raise DecodeError("vocabulary has no confidence value token")
    state = np.tanh(model.cond_weight @ np.concatenate([q, h]) + model.cond_bias)
    wz, wc, uz, uc, bz, bc = gate_parameters(model)
    tokens = [BOS]
    while not engine.done:
        allowed = engine.allowed_tokens()
        x = model.emb[tokens[-1]]
        z = where_sigmoid(wz @ x + uz @ state + bz)
        c = np.tanh(wc @ x + uc @ state + bc)
        state = (1.0 - z) * state + z * c
        logits = model.out_weight @ state + model.out_bias
        masked = np.full(logits.shape, -np.inf)
        masked[allowed] = logits[allowed]
        token = int(np.argmax(masked))
        engine.advance(token)
        tokens.append(token)
    sub = engine.evidence()
    spelled = [BOS, TOK_HEADER, TOK_NODES, TOK_EOL]
    for node in sub.graph.nodes:
        spelled += node_line_tokens(node, vocab.input_id)
    spelled += [TOK_EDGES, TOK_EOL]
    for edge in sub.graph.edges:
        spelled += edge_line_tokens(edge, vocab.input_id)
    spelled += [TOK_CONFIDENCE, TOK_EOL, tokens[-3], TOK_EOL, EOS]
    assert tokens == spelled and float(vocab.token(tokens[-3])) == sub.confidence
    return sub


def central_difference(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (flattened)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if den == 0.0:
        return 0.0
    return float(num / den)


# -- reference graph parser ------------------------------------------------
# The line-splitting parser and subset check that memalign.graphs replaced with
# one compiled scan, kept verbatim as the oracle the scanner is tested against.

_REFERENCE_NODE_ID_RE = re.compile(r"^N[1-9][0-9]*$")


def _reference_is_node_id(value: str) -> bool:
    return bool(_REFERENCE_NODE_ID_RE.match(value))


def _iter_content_lines(text: str):
    """Yield (1-based line number, trimmed line), skipping blanks."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _parse_node_line(line: str, lineno: int) -> Node:
    if ": " not in line:
        raise GraphFormatError(
            "malformed-node", f"node line missing ': ' delimiter: {line!r}", lineno
        )
    node_id, description = line.split(": ", 1)
    if not _reference_is_node_id(node_id):
        raise GraphFormatError(
            "malformed-node", f"invalid node id {node_id!r}", lineno
        )
    if not description:
        raise GraphFormatError("malformed-node", "empty node description", lineno)
    return Node(node_id, description)


def _parse_edge_line(line: str, lineno: int) -> Edge:
    if " -> " not in line:
        raise GraphFormatError(
            "malformed-edge", f"edge line missing ' -> ' delimiter: {line!r}", lineno
        )
    source, rest = line.split(" -> ", 1)
    if ": " not in rest:
        raise GraphFormatError(
            "malformed-edge", f"edge line missing ': ' delimiter: {line!r}", lineno
        )
    target, relation = rest.split(": ", 1)
    if not _reference_is_node_id(source) or not _reference_is_node_id(target):
        raise GraphFormatError(
            "malformed-edge", f"invalid edge endpoint in {line!r}", lineno
        )
    if not relation:
        raise GraphFormatError("malformed-edge", "empty edge relation", lineno)
    return Edge(source, target, relation)


def _parse_body(lines: list[tuple[int, str]], header: str, stop_markers: tuple[str, ...]):
    """Parse header + <NODES> + <EDGES> sections from trimmed lines.

    Returns (nodes, edges, remaining lines after a stop marker or exhaustion).
    """
    if not lines or lines[0][1] != header:
        lineno = lines[0][0] if lines else 1
        raise GraphFormatError("missing-header", f"expected {header} header", lineno)
    rest = lines[1:]
    if not rest or rest[0][1] != NODES_MARKER:
        lineno = rest[0][0] if rest else lines[0][0]
        raise GraphFormatError(
            "missing-section", f"expected {NODES_MARKER} section marker", lineno
        )
    rest = rest[1:]

    nodes: list[Node] = []
    seen_ids: set[str] = set()
    i = 0
    while i < len(rest) and rest[i][1] != EDGES_MARKER:
        lineno, line = rest[i]
        if line in stop_markers or line == NODES_MARKER:
            raise GraphFormatError(
                "missing-section", f"expected {EDGES_MARKER} before {line}", lineno
            )
        node = _parse_node_line(line, lineno)
        if node.id in seen_ids:
            raise GraphFormatError(
                "duplicate-node", f"duplicate node id {node.id}", lineno
            )
        seen_ids.add(node.id)
        nodes.append(node)
        i += 1
    if i == len(rest):
        raise GraphFormatError(
            "missing-section",
            f"expected {EDGES_MARKER} section marker",
            rest[-1][0] if rest else lines[0][0],
        )
    i += 1  # skip <EDGES>

    edges: list[Edge] = []
    while i < len(rest) and rest[i][1] not in stop_markers:
        lineno, line = rest[i]
        edge = _parse_edge_line(line, lineno)
        for endpoint in (edge.source, edge.target):
            if endpoint not in seen_ids:
                raise GraphFormatError(
                    "undeclared-node",
                    f"edge references undeclared node {endpoint}",
                    lineno,
                )
        edges.append(edge)
        i += 1
    return nodes, edges, rest[i:]


def reference_parse_full_graph(text: str) -> MemoryGraph:
    """Parse a [FULL_GRAPH] document."""
    lines = list(_iter_content_lines(text))
    nodes, edges, trailing = _parse_body(lines, FULL_HEADER, stop_markers=())
    if trailing:
        raise GraphFormatError(
            "trailing-content", f"unexpected content {trailing[0][1]!r}", trailing[0][0]
        )
    return MemoryGraph(tuple(nodes), tuple(edges))


def reference_parse_evidence(text: str) -> EvidenceSubgraph:
    """Parse an [EVIDENCE_SUBGRAPH] document, including its [CONFIDENCE] section."""
    lines = list(_iter_content_lines(text))
    nodes, edges, trailing = _parse_body(
        lines, EVIDENCE_HEADER, stop_markers=(CONFIDENCE_MARKER,)
    )
    if not trailing or trailing[0][1] != CONFIDENCE_MARKER:
        lineno = lines[-1][0] if lines else 1
        raise GraphFormatError(
            "missing-confidence", f"expected {CONFIDENCE_MARKER} section", lineno
        )
    value_lines = trailing[1:]
    if len(value_lines) != 1:
        lineno = trailing[0][0]
        raise GraphFormatError(
            "malformed-confidence", "expected exactly one confidence value line", lineno
        )
    lineno, value_text = value_lines[0]
    try:
        confidence = float(value_text)
    except ValueError:
        raise GraphFormatError(
            "malformed-confidence", f"non-numeric confidence {value_text!r}", lineno
        ) from None
    if not math.isfinite(confidence) or not 0.0 <= confidence <= 1.0:
        raise GraphFormatError(
            "confidence-range", f"confidence {value_text} outside [0, 1]", lineno
        )
    graph = MemoryGraph(tuple(nodes), tuple(edges))
    return EvidenceSubgraph(graph, confidence)


def reference_verify_subset(sub: EvidenceSubgraph, full: MemoryGraph) -> VerificationReport:
    """Check that ``sub`` is an exact node/edge subset of ``full``.

    Nodes must match on id and description; edges on (source, target,
    relation).  Comparison is exact string equality on the parsed
    (per-line trimmed) fields.  Violations are reported data, not errors.
    """
    full_nodes = {n.id: n.description for n in full.nodes}
    full_pairs: dict[tuple[str, str], set[str]] = {}
    for e in full.edges:
        full_pairs.setdefault((e.source, e.target), set()).add(e.relation)

    violations: list[Violation] = []
    for node in sub.graph.nodes:
        text = f"{node.id}: {node.description}"
        if node.id not in full_nodes:
            violations.append(Violation("unknown-node", text))
        elif full_nodes[node.id] != node.description:
            violations.append(Violation("description-mismatch", text))
    for edge in sub.graph.edges:
        text = f"{edge.source} -> {edge.target}: {edge.relation}"
        if edge.source not in full_nodes or edge.target not in full_nodes:
            violations.append(Violation("dangling-endpoint", text))
        elif (edge.source, edge.target) not in full_pairs:
            violations.append(Violation("unknown-edge", text))
        elif edge.relation not in full_pairs[(edge.source, edge.target)]:
            violations.append(Violation("relation-mismatch", text))
    return VerificationReport(tuple(violations))


# -- reference token-stream parser -----------------------------------------
# The cursor parser that memalign.tokenization replaced with a line reader,
# kept as the oracle the reader is tested against.  It reads ids outside the
# vocabulary through ``Vocabulary.token``, so it is an oracle only for streams
# whose ids are all in range.

_REFERENCE_STRUCTURAL_IDS = frozenset(
    {TOK_HEADER, TOK_NODES, TOK_EDGES, TOK_CONFIDENCE, TOK_COLON, TOK_ARROW, TOK_EOL}
)


class _ReferenceCursor:
    def __init__(self, tokens: tuple, vocab: Vocabulary):
        self.tokens = tokens
        self.vocab = vocab
        self.pos = 0

    def peek(self) -> int:
        if self.pos >= len(self.tokens):
            raise LinearizationError("truncated token stream")
        return self.tokens[self.pos]

    def take(self) -> int:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, token_id: int, what: str) -> None:
        tok = self.take()
        if tok != token_id:
            raise LinearizationError(
                f"expected {what} at position {self.pos - 1}, "
                f"got {self.vocab.token(tok)!r}"
            )

    def take_words_until_eol(self, what: str) -> str:
        words: list[str] = []
        while self.peek() != TOK_EOL:
            tok = self.take()
            if tok in (BOS, EOS) or tok in _REFERENCE_STRUCTURAL_IDS:
                raise LinearizationError(
                    f"unexpected structural token inside {what} at "
                    f"position {self.pos - 1}"
                )
            words.append(self.vocab.token(tok))
        self.take()  # EOL
        if not words:
            raise LinearizationError(f"empty {what}")
        return " ".join(words)


def reference_delinearize(seq, vocab: Vocabulary) -> EvidenceSubgraph:
    """Invert ``linearize`` token by token; rejects any stream outside the grammar."""
    cur = _ReferenceCursor(tuple(seq), vocab)
    cur.expect(BOS, "BOS")
    if cur.peek() == EOS:
        raise LinearizationError("empty body")
    cur.expect(TOK_HEADER, "header marker")
    cur.expect(TOK_NODES, "<NODES> marker")
    cur.expect(TOK_EOL, "end-of-line")

    nodes: list[Node] = []
    while cur.peek() != TOK_EDGES:
        tok = cur.take()
        if tok in _REFERENCE_STRUCTURAL_IDS or tok in (BOS, EOS):
            raise LinearizationError(
                f"marker out of order: {vocab.token(tok)!r} in node section"
            )
        node_id = vocab.token(tok)
        if not is_node_id(node_id):
            raise LinearizationError(f"node line lacking id token, got {node_id!r}")
        cur.expect(TOK_COLON, "':' after node id")
        description = cur.take_words_until_eol("node description")
        nodes.append(Node(node_id, description))
    cur.take()  # <EDGES>
    cur.expect(TOK_EOL, "end-of-line")

    edges: list[Edge] = []
    while cur.peek() not in (TOK_CONFIDENCE, EOS):
        tok = cur.take()
        source = vocab.token(tok)
        if tok in _REFERENCE_STRUCTURAL_IDS or not is_node_id(source):
            raise LinearizationError(f"edge line lacking source id, got {source!r}")
        cur.expect(TOK_ARROW, "'->' in edge line")
        target = vocab.token(cur.take())
        if not is_node_id(target):
            raise LinearizationError(f"edge line lacking target id, got {target!r}")
        cur.expect(TOK_COLON, "':' in edge line")
        relation = cur.take_words_until_eol("edge relation")
        edges.append(Edge(source, target, relation))

    confidence = None
    if cur.peek() == TOK_CONFIDENCE:
        cur.take()
        cur.expect(TOK_EOL, "end-of-line")
        value_word = cur.take_words_until_eol("confidence value")
        try:
            confidence = float(value_word)
        except ValueError:
            raise LinearizationError(
                f"non-numeric confidence {value_word!r}"
            ) from None
    cur.expect(EOS, "EOS")
    if cur.pos != len(cur.tokens):
        raise LinearizationError("trailing tokens after EOS")

    try:
        graph = MemoryGraph(tuple(nodes), tuple(edges))
        return EvidenceSubgraph(graph, confidence)
    except GraphFormatError as exc:
        raise LinearizationError(f"invalid graph in token stream: {exc}") from exc


# -- reference backward pass -------------------------------------------------


def reference_sequence_backward(model: RetrieverModel, cache, d_logits: np.ndarray) -> dict:
    """``sequence_backward`` as it was before its step loop wrote into fixed
    buffers: the hidden rows are gathered again, the hidden-state gradient
    is a zero-filled (T, B, d_m) array filled through the step mask, the
    local derivatives of every step sit in an array of their own, and each
    step allocates its new state gradient.  The float operations are the
    same, in the same order, so the two must give the same gradient bytes."""
    steps, batch = cache.inputs.shape
    d_m = model.d_m
    grads = model.views(np.empty_like(model.flat))
    hidden = cache.states[1:].swapaxes(0, 1)[cache.mask]
    np.matmul(d_logits.T, hidden, out=grads["out_weight"])
    d_logits.sum(axis=0, out=grads["out_bias"])
    d_hidden = np.zeros((steps, batch, d_m))
    d_hidden.swapaxes(0, 1)[cache.mask] = d_logits @ model.out_weight

    g, c, s = cache.acts[:, 0], cache.acts[:, 1], cache.states[:-1]
    z = g + 1.0
    z *= 0.5
    carry = 1.0 - z
    local = np.empty((steps, batch, 2, d_m))
    d_z, d_c = local[:, :, 0], local[:, :, 1]
    np.subtract(c, s, out=d_z)
    d_z *= z
    d_z *= carry
    np.multiply(c, c, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= z
    u_rec = model.u_rec
    d_pre = np.empty((steps, batch, 2, d_m))
    d_state = np.zeros((batch, d_m))
    for t in range(steps - 1, -1, -1):
        d_s_new = d_hidden[t] + d_state
        np.multiply(d_s_new[:, None, :], local[t], out=d_pre[t])
        d_state = d_s_new * carry[t] + d_pre[t].reshape(batch, 2 * d_m) @ u_rec

    flat_pre = d_pre.reshape(steps * batch, 2 * d_m)
    np.matmul(flat_pre.T, cache.states[:-1].reshape(steps * batch, d_m), out=grads["u_rec"])
    flat_pre.sum(axis=0, out=grads["b_in"])
    tokens, token_rows = np.unique(cache.inputs.reshape(-1), return_inverse=True)
    bins = (token_rows[:, None] * (2 * d_m) + np.arange(2 * d_m)).reshape(-1)
    d_pre_tokens = np.bincount(
        bins, weights=d_pre.reshape(-1), minlength=tokens.shape[0] * 2 * d_m
    ).reshape(tokens.shape[0], 2 * d_m)
    np.matmul(d_pre_tokens.T, model.emb[tokens], out=grads["w_in"])
    grads["emb"].fill(0.0)
    grads["emb"][tokens] = d_pre_tokens @ model.w_in
    d_s0_pre = d_state * (1.0 - cache.states[0] ** 2)
    np.matmul(d_s0_pre.T, cache.cond, out=grads["cond_weight"])
    d_s0_pre.sum(axis=0, out=grads["cond_bias"])
    return grads


# -- reference corpus record validator ---------------------------------------


def _reference_is_number_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {int, float}


def reference_validate_records(records, d_c: int) -> list[CorpusInstance]:
    """``corpus.validate_records`` as it was before it proved each gold
    subgraph from its full graph's scan: every gold text is scanned and then
    passes the subset check against the full scan.  It keeps the two scans
    on each instance under the same names, so a validator must accept or
    refuse the same records, with the same message, and keep equal scans."""
    instances: list[CorpusInstance] = []
    seen_ids: set[str] = set()
    for record in records:
        lineno, instance_id = record.line, record.id
        if instance_id in seen_ids:
            raise CorpusError(f"line {lineno}: duplicate id {instance_id!r}")
        seen_ids.add(instance_id)
        content = record.content_vector
        if type(content) is not tuple:  # not decoded to floats
            if not _reference_is_number_list(content):
                raise CorpusError(f"line {lineno}: content_vector is not a list of numbers")
            raise CorpusError(f"line {lineno}: content_vector has an entry beyond float64")
        if len(content) != d_c:
            raise CorpusError(
                f"line {lineno}: content_vector has {len(content)} entries, expected {d_c}"
            )
        if not all(map(math.isfinite, content)):
            raise CorpusError(f"line {lineno}: content_vector has a non-finite entry")
        segments = record.segment_count
        if type(segments) is not int or segments < 1:  # a JSON true is no count
            raise CorpusError(f"line {lineno}: segment_count {segments!r} is not a positive integer")
        if segments > d_c:
            raise CorpusError(f"line {lineno}: segment_count {segments} exceeds d_c {d_c}")
        instance = CorpusInstance(
            id=instance_id,
            query=record.query,
            gold_answer=record.gold_answer,
            full_graph_text=record.full_graph_text,
            gold_subgraph_text=record.gold_subgraph_text,
            content_vector=content,
            segment_count=segments,
        )
        try:
            full = scan(instance.full_graph_text, FULL_HEADER)
            gold = scan(instance.gold_subgraph_text, EVIDENCE_HEADER)
        except GraphFormatError as exc:
            raise CorpusError(
                f"instance {instance_id!r}: invalid graph text ({exc})"
            ) from exc
        violations = subset_violations(gold[0].items(), gold[1], full[0], full[1])
        if violations:
            kinds = ", ".join(v.kind for v in violations)
            raise CorpusError(
                f"instance {instance_id!r}: gold subgraph fails subset "
                f"verification ({kinds})"
            )
        vars(instance).update({"_full_scan": full, "_gold_scan": gold})
        instances.append(instance)
    return instances
