"""Memory graphs, evidence subgraphs, their text formats, and subset verification.

Two bit-exact text formats are supported:

    [FULL_GRAPH]                  [EVIDENCE_SUBGRAPH]
    <NODES>                       <NODES>
    N1: description               N1: description
    <EDGES>                       <EDGES>
    N1 -> N2: relation            N1 -> N2: relation
                                  [CONFIDENCE]
                                  0.85

Node lines split on the FIRST ``: `` after the id; descriptions may
themselves contain colons.  Edge lines split on `` -> `` and then the
first ``: `` after the target.  Each input line is trimmed; blank lines
are ignored.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

FULL_HEADER = "[FULL_GRAPH]"
EVIDENCE_HEADER = "[EVIDENCE_SUBGRAPH]"
NODES_MARKER = "<NODES>"
EDGES_MARKER = "<EDGES>"
CONFIDENCE_MARKER = "[CONFIDENCE]"

_NODE_ID_RE = re.compile(r"^N[1-9][0-9]*$")


class GraphFormatError(ValueError):
    """Raised for malformed graph documents or invalid graph structure."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        self.kind = kind
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


def is_node_id(value: str) -> bool:
    return bool(_NODE_ID_RE.match(value))


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

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)


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
    if not is_node_id(node_id):
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
    if not is_node_id(source) or not is_node_id(target):
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


def parse_full_graph(text: str) -> MemoryGraph:
    """Parse a [FULL_GRAPH] document."""
    lines = list(_iter_content_lines(text))
    nodes, edges, trailing = _parse_body(lines, FULL_HEADER, stop_markers=())
    if trailing:
        raise GraphFormatError(
            "trailing-content", f"unexpected content {trailing[0][1]!r}", trailing[0][0]
        )
    return MemoryGraph(tuple(nodes), tuple(edges))


def parse_evidence(text: str) -> EvidenceSubgraph:
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


def verify_subset(sub: EvidenceSubgraph, full: MemoryGraph) -> VerificationReport:
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
