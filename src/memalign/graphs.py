"""Memory graphs, evidence subgraphs, their text formats, and subset verification.

Two bit-exact text formats are supported:

    [FULL_GRAPH]                  [EVIDENCE_SUBGRAPH]
    <NODES>                       <NODES>
    N1: description               N1: description
    <EDGES>                       <EDGES>
    N1 -> N2: relation            N1 -> N2: relation
                                  [CONFIDENCE]
                                  0.85

Each input line is trimmed and blank lines are ignored.  Every other line
is a fixed marker or value, or matches one of two patterns in full:

    node line:  (N[1-9][0-9]*): (.+)
    edge line:  (N[1-9][0-9]*) -> (N[1-9][0-9]*): (.+)

An id holds no ``:``, space or ``->``, so a description or relation is
everything after the first ``: `` that follows the id (or the target) and
may itself contain ``: `` or `` -> ``.  ``scan`` reads a document with these
patterns without building graph objects; :func:`build_graph` builds them
from its result, for the parsers and for any caller that kept a scan.
"""
from __future__ import annotations

import math
import re
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from itertools import starmap

FULL_HEADER = "[FULL_GRAPH]"
EVIDENCE_HEADER = "[EVIDENCE_SUBGRAPH]"
NODES_MARKER = "<NODES>"
EDGES_MARKER = "<EDGES>"
CONFIDENCE_MARKER = "[CONFIDENCE]"

_NODE_ID = r"N[1-9][0-9]*"
_NODE_ID_RE = re.compile(_NODE_ID)
_NODE_LINE = re.compile(rf"({_NODE_ID}): (.+)")
_EDGE_LINE = re.compile(rf"({_NODE_ID}) -> ({_NODE_ID}): (.+)")


class GraphFormatError(ValueError):
    """Raised for malformed graph documents or invalid graph structure."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        self.kind = kind
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


def is_node_id(value: str) -> bool:
    return _NODE_ID_RE.fullmatch(value) is not None


@dataclass(frozen=True)
class Node:
    id: str
    description: str


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    relation: str


@dataclass(frozen=True)
class MemoryGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen: set[str] = set()
        for node in self.nodes:
            if not is_node_id(node.id):
                raise GraphFormatError("bad-node-id", f"invalid node id {node.id!r}")
            if not node.description or "\n" in node.description:
                raise GraphFormatError(
                    "bad-description", f"invalid description for {node.id}"
                )
            if node.id in seen:
                raise GraphFormatError("duplicate-node", f"duplicate node id {node.id}")
            seen.add(node.id)
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in seen:
                    raise GraphFormatError(
                        "dangling-endpoint",
                        f"edge {edge.source} -> {edge.target} references "
                        f"undeclared node {endpoint}",
                    )
            if not edge.relation or "\n" in edge.relation:
                raise GraphFormatError(
                    "bad-relation",
                    f"invalid relation on edge {edge.source} -> {edge.target}",
                )


@dataclass(frozen=True)
class EvidenceSubgraph:
    graph: MemoryGraph
    confidence: float | None = None

    def __post_init__(self):
        if self.confidence is not None:
            if not math.isfinite(self.confidence) or not 0.0 <= self.confidence <= 1.0:
                raise GraphFormatError(
                    "confidence-range",
                    f"confidence {self.confidence!r} outside [0, 1]",
                )


@dataclass(frozen=True)
class Violation:
    kind: str  # unknown-node | description-mismatch | unknown-edge | relation-mismatch | dangling-endpoint
    element: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def accepted(self) -> bool:
        return not self.violations


def _error(text: str, k: int, kind: str, message: str) -> GraphFormatError:
    """The error for the ``k``-th trimmed non-blank line of ``text``, with its
    1-based line number (1 for a document with no such line)."""
    lineno = 1
    for n, raw in enumerate(text.split("\n"), start=1):
        if raw.strip():
            if k == 0:
                lineno = n
                break
            k -= 1
    return GraphFormatError(kind, message, lineno)


def _node_line_error(line: str, nodes: dict[str, str], evidence: bool) -> tuple[str, str]:
    """(kind, message) for a node-section line the node pattern rejected, or
    whose id is already declared."""
    if line == NODES_MARKER or (evidence and line == CONFIDENCE_MARKER):
        return "missing-section", f"expected {EDGES_MARKER} before {line}"
    if ": " not in line:
        return "malformed-node", f"node line missing ': ' delimiter: {line!r}"
    node_id, description = line.split(": ", 1)
    if not is_node_id(node_id):
        return "malformed-node", f"invalid node id {node_id!r}"
    if node_id in nodes:
        return "duplicate-node", f"duplicate node id {node_id}"
    return "malformed-node", "empty node description"  # not left by trimming


def _edge_line_error(line: str, nodes: dict[str, str]) -> tuple[str, str]:
    """(kind, message) for an edge-section line the edge pattern rejected, or
    whose endpoints are not all declared."""
    if " -> " not in line:
        return "malformed-edge", f"edge line missing ' -> ' delimiter: {line!r}"
    source, rest = line.split(" -> ", 1)
    if ": " not in rest:
        return "malformed-edge", f"edge line missing ': ' delimiter: {line!r}"
    target, relation = rest.split(": ", 1)
    if not is_node_id(source) or not is_node_id(target):
        return "malformed-edge", f"invalid edge endpoint in {line!r}"
    for endpoint in (source, target):
        if endpoint not in nodes:
            return "undeclared-node", f"edge references undeclared node {endpoint}"
    return "malformed-edge", "empty edge relation"  # not left by trimming


def scan(
    text: str, header: str
) -> tuple[dict[str, str], list[tuple[str, str, str]], float | None]:
    """Validate a document of either format without building graph objects.

    ``header`` is ``FULL_HEADER`` or ``EVIDENCE_HEADER``.  Returns the nodes
    as an insertion-ordered ``{id: description}``, the edges as
    ``(source, target, relation)`` triples, and the confidence (None for a
    full graph).  Raises ``GraphFormatError`` naming the first offending line.
    """
    evidence = header == EVIDENCE_HEADER
    lines = [line for raw in text.split("\n") if (line := raw.strip())]

    if not lines or lines[0] != header:
        raise _error(text, 0, "missing-header", f"expected {header} header")
    if len(lines) < 2 or lines[1] != NODES_MARKER:
        raise _error(
            text, min(1, len(lines) - 1), "missing-section",
            f"expected {NODES_MARKER} section marker",
        )
    try:
        edges_at = lines.index(EDGES_MARKER, 2)
    except ValueError:
        edges_at = len(lines)
    nodes: dict[str, str] = {}
    for k in range(2, edges_at):
        match = _NODE_LINE.fullmatch(lines[k])
        if match is None or match[1] in nodes:
            raise _error(text, k, *_node_line_error(lines[k], nodes, evidence))
        nodes[match[1]] = match[2]
    if edges_at == len(lines):  # at the last node line, or the header if there is none
        raise _error(
            text, edges_at - 1 if edges_at > 2 else 0, "missing-section",
            f"expected {EDGES_MARKER} section marker",
        )

    try:
        end = lines.index(CONFIDENCE_MARKER, edges_at + 1) if evidence else len(lines)
    except ValueError:
        end = len(lines)
    edges: list[tuple[str, str, str]] = []
    for k in range(edges_at + 1, end):
        match = _EDGE_LINE.fullmatch(lines[k])
        if match is None or match[1] not in nodes or match[2] not in nodes:
            raise _error(text, k, *_edge_line_error(lines[k], nodes))
        edges.append(match.groups())
    if not evidence:
        return nodes, edges, None

    if end == len(lines):
        raise _error(text, end - 1, "missing-confidence", f"expected {CONFIDENCE_MARKER} section")
    if end + 2 != len(lines):
        raise _error(
            text, end, "malformed-confidence", "expected exactly one confidence value line"
        )
    value_text = lines[-1]
    try:
        confidence = float(value_text)
    except ValueError:
        raise _error(
            text, end + 1, "malformed-confidence", f"non-numeric confidence {value_text!r}"
        ) from None
    if not math.isfinite(confidence) or not 0.0 <= confidence <= 1.0:
        raise _error(
            text, end + 1, "confidence-range", f"confidence {value_text} outside [0, 1]"
        )
    return nodes, edges, confidence


def build_graph(nodes: dict[str, str], edges: list[tuple[str, str, str]]) -> MemoryGraph:
    """The graph of the nodes and edges that :func:`scan` returned."""
    return MemoryGraph(tuple(map(Node, nodes, nodes.values())), tuple(starmap(Edge, edges)))


def parse_full_graph(text: str) -> MemoryGraph:
    """Parse a [FULL_GRAPH] document."""
    nodes, edges, _ = scan(text, FULL_HEADER)
    return build_graph(nodes, edges)


def parse_evidence(text: str) -> EvidenceSubgraph:
    """Parse an [EVIDENCE_SUBGRAPH] document, including its [CONFIDENCE] section."""
    nodes, edges, confidence = scan(text, EVIDENCE_HEADER)
    return EvidenceSubgraph(build_graph(nodes, edges), confidence)


def format_confidence(confidence: float) -> str:
    """Canonical text form of a confidence value (shortest float repr)."""
    return repr(float(confidence))


def emit(graph: MemoryGraph, mode: str = "full", confidence: float | None = None) -> str:
    """Emit the canonical document for a graph.

    ``mode`` is ``"full"`` or ``"evidence"``; evidence mode requires a
    confidence value.  The output is newline-terminated with no blank lines.
    """
    if mode == "full":
        header = FULL_HEADER
    elif mode == "evidence":
        if confidence is None:
            raise ValueError("evidence mode requires a confidence value")
        header = EVIDENCE_HEADER
    else:
        raise ValueError(f"unknown emit mode {mode!r}")

    lines = [header, NODES_MARKER]
    lines.extend(f"{n.id}: {n.description}" for n in graph.nodes)
    lines.append(EDGES_MARKER)
    lines.extend(f"{e.source} -> {e.target}: {e.relation}" for e in graph.edges)
    if mode == "evidence":
        lines.append(CONFIDENCE_MARKER)
        lines.append(format_confidence(confidence))
    return "\n".join(lines) + "\n"


def emit_evidence(sub: EvidenceSubgraph) -> str:
    if sub.confidence is None:
        raise ValueError("evidence subgraph has no confidence value")
    return emit(sub.graph, "evidence", sub.confidence)


def subset_violations(
    sub_nodes: Iterable[tuple[str, str]],
    sub_edges: Collection[tuple[str, str, str]],
    full_nodes: dict[str, str],
    full_edges: Iterable[tuple[str, str, str]],
) -> list[Violation]:
    """Every way the evidence nodes and edges fail to be a subset of a full graph.

    Nodes are ``(id, description)`` pairs, edges ``(source, target,
    relation)`` triples; ``full_nodes`` maps id to description and
    ``full_edges`` must only join nodes in it.  Node violations come first,
    each list in evidence order.
    """
    violations: list[Violation] = []
    for node_id, description in sub_nodes:
        known = full_nodes.get(node_id)
        if known is None:
            violations.append(Violation("unknown-node", f"{node_id}: {description}"))
        elif known != description:
            violations.append(Violation("description-mismatch", f"{node_id}: {description}"))
    if not sub_edges:
        return violations
    full_triples = set(full_edges)
    full_pairs = None
    for edge in sub_edges:
        if edge in full_triples:
            continue
        source, target, relation = edge
        text = f"{source} -> {target}: {relation}"
        if source not in full_nodes or target not in full_nodes:
            violations.append(Violation("dangling-endpoint", text))
            continue
        if full_pairs is None:
            full_pairs = {(s, t) for s, t, _ in full_triples}
        kind = "relation-mismatch" if (source, target) in full_pairs else "unknown-edge"
        violations.append(Violation(kind, text))
    return violations


def verify_subset(sub: EvidenceSubgraph, full: MemoryGraph) -> VerificationReport:
    """Check that ``sub`` is an exact node/edge subset of ``full``.

    Nodes must match on id and description; edges on (source, target,
    relation).  Comparison is exact string equality on the parsed
    (per-line trimmed) fields.  Violations are reported data, not errors.
    """
    return VerificationReport(
        subset_violations(
            [(n.id, n.description) for n in sub.graph.nodes],
            [(e.source, e.target, e.relation) for e in sub.graph.edges],
            {n.id: n.description for n in full.nodes},
            ((e.source, e.target, e.relation) for e in full.edges),
        )
    )
