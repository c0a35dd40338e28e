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

# Ids that cannot stand as a word: the sentinels and the structural markers.
NON_WORD_IDS = frozenset(
    {BOS, EOS, TOK_HEADER, TOK_NODES, TOK_EDGES, TOK_CONFIDENCE, TOK_COLON, TOK_ARROW, TOK_EOL}
)
# The fixed head of a node and of an edge line, None marking a node id; the
# words after the head are the description or the relation.
NODE_HEAD = (None, TOK_COLON)
EDGE_HEAD = (None, TOK_ARROW, None, TOK_COLON)


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


def _words(tokens: tuple[int, ...], vocab: Vocabulary, what: str) -> str:
    if not tokens or not NON_WORD_IDS.isdisjoint(tokens):
        raise LinearizationError(f"empty {what}, or a structural token in it")
    return " ".join(map(vocab.token, tokens))


def _fields(line: tuple[int, ...], head: tuple, vocab: Vocabulary, what: str) -> list[str]:
    """The node ids of a line laid out as ``head`` then words, and its
    words.  ``MemoryGraph`` checks the ids: each node id must pass
    ``is_node_id``, and each edge endpoint must be a declared node."""
    if not all(want in (None, tok) for tok, want in zip(line, head)):
        raise LinearizationError(f"malformed {what} line")
    ids = [vocab.token(tok) for tok, want in zip(line, head) if want is None]
    return ids + [_words(line[len(head) :], vocab, what)]


def delinearize(seq: Sequence[int], vocab: Vocabulary) -> EvidenceSubgraph:
    """Invert :func:`linearize`; rejects any stream outside the grammar,
    and any id outside the vocabulary.

    The body between BOS and EOS is split at its EOL tokens, exact since
    no word has a structural id, and its lines are matched in order: the
    header, node lines, the <EDGES> line, edge lines, then optionally the
    [CONFIDENCE] line and one value line.
    """
    seq, size = tuple(seq), len(vocab)
    if not all(0 <= tok < size for tok in seq):
        raise LinearizationError("token id outside the vocabulary")
    if seq[:1] != (BOS,) or seq[-2:] != (TOK_EOL, EOS):
        raise LinearizationError("stream does not run from BOS through lines to EOS")
    body = seq[1:-1]
    ends = [i for i, tok in enumerate(body) if tok == TOK_EOL]
    lines = [body[a + 1 : b] for a, b in zip([-1] + ends, ends)]
    if lines[0] != (TOK_HEADER, TOK_NODES) or (TOK_EDGES,) not in lines:
        raise LinearizationError("missing header or <EDGES> line")
    edges_at = lines.index((TOK_EDGES,))
    rest = lines[edges_at + 1 :]
    confidence_at = rest.index((TOK_CONFIDENCE,)) if (TOK_CONFIDENCE,) in rest else len(rest)
    nodes = [Node(*_fields(line, NODE_HEAD, vocab, "node")) for line in lines[1:edges_at]]
    edges = [Edge(*_fields(line, EDGE_HEAD, vocab, "edge")) for line in rest[:confidence_at]]
    confidence = None
    if confidence_at < len(rest):
        if len(rest) != confidence_at + 2:
            raise LinearizationError("expected exactly one confidence value line")
        value_word = _words(rest[-1], vocab, "confidence value")
        try:
            confidence = float(value_word)
        except ValueError:
            raise LinearizationError(f"non-numeric confidence {value_word!r}") from None
    try:
        return EvidenceSubgraph(MemoryGraph(tuple(nodes), tuple(edges)), confidence)
    except GraphFormatError as exc:
        raise LinearizationError(f"invalid graph in token stream: {exc}") from exc
