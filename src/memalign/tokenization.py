"""Structure-preserving linearization between graphs and token sequences.

The token stream mirrors the evidence-subgraph document: one structural
token per marker, whitespace-split word tokens for ids, descriptions,
relations, and the confidence value, and an end-of-line token after every
line except the header.  BOS is prepended and EOS appended.

Internal runs of whitespace inside descriptions/relations are not
preserved by the word-token scheme; round-tripping is exact for
single-spaced graphs (the canonical form used throughout the engine).
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .graphs import (
    Edge,
    EvidenceSubgraph,
    GraphFormatError,
    MemoryGraph,
    Node,
    format_confidence,
    is_node_id,
)
from .vocab import (
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

STRUCTURAL_IDS = frozenset(
    {TOK_HEADER, TOK_NODES, TOK_EDGES, TOK_CONFIDENCE, TOK_COLON, TOK_ARROW, TOK_EOL}
)


class LinearizationError(ValueError):
    pass


def graph_surface_words(graph: MemoryGraph, confidence: float | None = None):
    """Yield every word token the linearization of a graph will need."""
    for node in graph.nodes:
        yield node.id
        yield from node.description.split()
    for edge in graph.edges:
        yield edge.source
        yield edge.target
        yield from edge.relation.split()
    if confidence is not None:
        yield format_confidence(confidence)


def node_line_tokens(node: Node, word_id: Callable[[str], int]) -> list[int]:
    """Tokens of one node line, end-of-line included, words by ``word_id``."""
    toks = [word_id(node.id), TOK_COLON]
    toks.extend(map(word_id, node.description.split()))
    toks.append(TOK_EOL)
    return toks


def edge_line_tokens(edge: Edge, word_id: Callable[[str], int]) -> list[int]:
    """Tokens of one edge line, end-of-line included, words by ``word_id``."""
    toks = [word_id(edge.source), TOK_ARROW, word_id(edge.target), TOK_COLON]
    toks.extend(map(word_id, edge.relation.split()))
    toks.append(TOK_EOL)
    return toks


def linearize(
    graph: MemoryGraph, vocab: Vocabulary, confidence: float | None = None
) -> tuple[int, ...]:
    """Serialize a graph into its token sequence."""
    toks: list[int] = [BOS, TOK_HEADER, TOK_NODES, TOK_EOL]
    for node in graph.nodes:
        toks.extend(node_line_tokens(node, vocab.id_of))
    toks.extend((TOK_EDGES, TOK_EOL))
    for edge in graph.edges:
        toks.extend(edge_line_tokens(edge, vocab.id_of))
    if confidence is not None:
        toks.extend((TOK_CONFIDENCE, TOK_EOL))
        toks.append(vocab.id_of(format_confidence(confidence)))
        toks.append(TOK_EOL)
    toks.append(EOS)
    return tuple(toks)


def linearize_evidence(sub: EvidenceSubgraph, vocab: Vocabulary) -> tuple[int, ...]:
    return linearize(sub.graph, vocab, sub.confidence)


class _Cursor:
    def __init__(self, tokens: tuple[int, ...], vocab: Vocabulary):
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
            if tok in (BOS, EOS) or tok in STRUCTURAL_IDS:
                raise LinearizationError(
                    f"unexpected structural token inside {what} at "
                    f"position {self.pos - 1}"
                )
            words.append(self.vocab.token(tok))
        self.take()  # EOL
        if not words:
            raise LinearizationError(f"empty {what}")
        return " ".join(words)


def delinearize(seq: Sequence[int], vocab: Vocabulary) -> EvidenceSubgraph:
    """Invert :func:`linearize`; rejects any stream outside the grammar."""
    cur = _Cursor(tuple(seq), vocab)
    cur.expect(BOS, "BOS")
    if cur.peek() == EOS:
        raise LinearizationError("empty body")
    cur.expect(TOK_HEADER, "header marker")
    cur.expect(TOK_NODES, "<NODES> marker")
    cur.expect(TOK_EOL, "end-of-line")

    nodes: list[Node] = []
    while cur.peek() != TOK_EDGES:
        tok = cur.take()
        if tok in STRUCTURAL_IDS or tok in (BOS, EOS):
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
        if tok in STRUCTURAL_IDS or not is_node_id(source):
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
