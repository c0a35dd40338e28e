"""Graph text formats and subset verification."""
import numpy as np
import pytest

from memalign.graphs import (
    EVIDENCE_HEADER,
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
    verify_subset,
)
from util import (
    random_graph,
    random_subgraph,
    reference_parse_evidence,
    reference_parse_full_graph,
)

FULL_DOC = (
    "[FULL_GRAPH]\n"
    "<NODES>\n"
    "N1: amber harbor\n"
    "N2: quiet mill\n"
    "<EDGES>\n"
    "N1 -> N2: feeds\n"
)

EVIDENCE_DOC = (
    "[EVIDENCE_SUBGRAPH]\n"
    "<NODES>\n"
    "N1: amber harbor\n"
    "<EDGES>\n"
    "[CONFIDENCE]\n"
    "0.85\n"
)


def test_parse_full_graph():
    g = parse_full_graph(FULL_DOC)
    assert g.nodes == (Node("N1", "amber harbor"), Node("N2", "quiet mill"))
    assert g.edges == (Edge("N1", "N2", "feeds"),)


def test_emit_parse_identity_on_canonical():
    assert emit(parse_full_graph(FULL_DOC)) == FULL_DOC
    assert emit_evidence(parse_evidence(EVIDENCE_DOC)) == EVIDENCE_DOC


def test_parse_trims_and_skips_blank_lines():
    messy = "\n  [FULL_GRAPH]  \n\n<NODES>\n  N1: amber harbor\n\n<EDGES>\n\n"
    g = parse_full_graph(messy)
    assert g.nodes == (Node("N1", "amber harbor"),)


def test_description_may_contain_colons():
    doc = "[FULL_GRAPH]\n<NODES>\nN1: time: a flat circle\n<EDGES>\n"
    g = parse_full_graph(doc)
    assert g.nodes[0].description == "time: a flat circle"
    assert emit(g) == doc


def test_empty_graph_documents():
    doc = "[FULL_GRAPH]\n<NODES>\n<EDGES>\n"
    g = parse_full_graph(doc)
    assert g.nodes == () and g.edges == ()
    assert emit(g) == doc


def test_evidence_requires_confidence_section():
    with pytest.raises(GraphFormatError, match="CONFIDENCE"):
        parse_evidence("[EVIDENCE_SUBGRAPH]\n<NODES>\n<EDGES>\n")


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf", "two"])
def test_confidence_out_of_range_or_malformed_rejected(value):
    doc = f"[EVIDENCE_SUBGRAPH]\n<NODES>\n<EDGES>\n[CONFIDENCE]\n{value}\n"
    with pytest.raises(GraphFormatError):
        parse_evidence(doc)


def test_confidence_not_clamped_in_constructor():
    g = MemoryGraph((), ())
    with pytest.raises(GraphFormatError):
        EvidenceSubgraph(g, 1.0000001)


FULL_3 = "[FULL_GRAPH]\n<NODES>\nN1: x\nN2: y\nN3: z\n<EDGES>\n"


@pytest.mark.parametrize(
    "doc,kind",
    [
        ("<NODES>\nN1: x\n<EDGES>\n", "missing-header"),
        ("[FULL_GRAPH]\nN1: x\n<EDGES>\n", "missing-section"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n", "missing-section"),
        ("[FULL_GRAPH]\n<NODES>\nN0: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1 x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\nN1: y\n<EDGES>\n", "duplicate-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n<EDGES>\nN1 -> N2: r\n", "undeclared-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n<EDGES>\nN1 N1: r\n", "malformed-edge"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n<EDGES>\nN1 -> N1 r\n", "malformed-edge"),
        # Lines where matching the line patterns in full and splitting on the
        # first delimiter could disagree; None marks a document both accept.
        (FULL_3 + "N1 -> N2 -> N3: r\n", "malformed-edge"),
        (FULL_3 + "N1 -> N2:: r\n", "malformed-edge"),
        (FULL_3 + "N1 ->N2: r\n", "malformed-edge"),
        (FULL_3 + "N1  -> N2: r\n", "malformed-edge"),
        (FULL_3 + "N1 -> N2 : r\n", "malformed-edge"),
        (FULL_3 + "N1 -> N2: \n", "malformed-edge"),
        (FULL_3 + "N1 -> N2:\tr\n", "malformed-edge"),
        (FULL_3 + "N1 -> N4: r\n", "undeclared-node"),
        (FULL_3 + "N1 -> N2: r -> N3: s\n", None),
        (FULL_3 + "N1 -> N2: a: b: c\n", None),
        (FULL_3 + "N1 -> N2: r\nN1 -> N2: r\n", None),
        (FULL_3 + "<EDGES>\n", "malformed-edge"),
        (FULL_3 + "[CONFIDENCE]\n0.5\n", "malformed-edge"),
        ("[FULL_GRAPH]\n<NODES>\nN1: \n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1:\tx\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1:: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1 : x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN01: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nn1: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1x: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1 -> N2: x\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1: a: b\nN2: c -> d\n<EDGES>\n", None),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n[CONFIDENCE]\n<EDGES>\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\nN1: x\n<NODES>\n<EDGES>\n", "missing-section"),
        ("[FULL_GRAPH]\r\n<NODES>\r\nN1: x\r\n<EDGES>\r\n", None),
        ("[FULL_GRAPH]\r\n<NODES>\r\nN1 x\r\n<EDGES>\r\n", "malformed-node"),
        ("[FULL_GRAPH]\n<NODES>\n\n \t\nN1 x\n", "malformed-node"),
        ("\n \n", "missing-header"),
        ("[FULL_GRAPH]\n", "missing-section"),
        ("[FULL_GRAPH]\n<NODES>\n", "missing-section"),
        ("[EVIDENCE_SUBGRAPH]\n<NODES>\nN1: x\n[CONFIDENCE]\n<EDGES>\n", "missing-section"),
        ("[EVIDENCE_SUBGRAPH]\n<NODES>\nN1: x\n<NODES>\n<EDGES>\n", "missing-section"),
        ("[EVIDENCE_SUBGRAPH]\n<NODES>\n<EDGES>\n[CONFIDENCE]\n", "malformed-confidence"),
        ("[EVIDENCE_SUBGRAPH]\n<NODES>\n<EDGES>\n[CONFIDENCE]\n0.5\n0.5\n", "malformed-confidence"),
        (
            "[EVIDENCE_SUBGRAPH]\n<NODES>\n<EDGES>\n[CONFIDENCE]\n[CONFIDENCE]\n0.5\n",
            "malformed-confidence",
        ),
        ("[EVIDENCE_SUBGRAPH]\r\n<NODES>\r\n<EDGES>\r\n[CONFIDENCE]\r\n0.5\r\n", None),
    ],
)
def test_malformed_documents(doc, kind):
    parse, reference = (
        (parse_evidence, reference_parse_evidence)
        if doc.startswith(EVIDENCE_HEADER)
        else (parse_full_graph, reference_parse_full_graph)
    )
    if kind is None:
        assert parse(doc) == reference(doc)
        return
    with pytest.raises(GraphFormatError) as err:
        parse(doc)
    assert err.value.kind == kind
    with pytest.raises(GraphFormatError) as expected:
        reference(doc)
    assert (err.value.kind, err.value.line, str(err.value)) == (
        expected.value.kind, expected.value.line, str(expected.value)
    )


def test_graph_rejects_node_id_with_trailing_newline():
    # An id must match the node pattern in full: "N1\n" would emit a node
    # line that parses as a different document.
    with pytest.raises(GraphFormatError) as err:
        MemoryGraph((Node("N1\n", "x"),), ())
    assert err.value.kind == "bad-node-id"


def test_error_reports_line_number():
    doc = "[FULL_GRAPH]\n<NODES>\nN1: x\nbroken line\n<EDGES>\n"
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_full_graph(doc)


def test_format_confidence_round_trips():
    for value in (0.0, 1.0, 0.85, 0.3333333333333333, 1e-8):
        assert float(format_confidence(value)) == value


def test_parse_emit_round_trip_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = random_graph(rng)
        assert parse_full_graph(emit(g)) == g
        sub = EvidenceSubgraph(g, float(rng.integers(0, 101)) / 100.0)
        assert parse_evidence(emit_evidence(sub)) == sub


# -- subset verification -------------------------------------------------


def _full():
    return parse_full_graph(FULL_DOC)


def test_verify_reflexive():
    full = _full()
    report = verify_subset(EvidenceSubgraph(full, 0.9), full)
    assert report.accepted and report.violations == ()


def test_verify_unknown_node():
    sub = EvidenceSubgraph(MemoryGraph((Node("N9", "ghost"),), ()), 0.5)
    report = verify_subset(sub, _full())
    assert not report.accepted
    assert report.violations[0].kind == "unknown-node"
    assert report.violations[0].element == "N9: ghost"


def test_verify_description_mismatch():
    sub = EvidenceSubgraph(MemoryGraph((Node("N1", "amber harbour"),), ()), 0.5)
    assert verify_subset(sub, _full()).violations[0].kind == "description-mismatch"


def test_verify_relation_mismatch():
    sub = EvidenceSubgraph(
        MemoryGraph(
            (Node("N1", "amber harbor"), Node("N2", "quiet mill")),
            (Edge("N1", "N2", "drains"),),
        ),
        0.5,
    )
    assert verify_subset(sub, _full()).violations[0].kind == "relation-mismatch"


def test_verify_unknown_edge():
    sub = EvidenceSubgraph(
        MemoryGraph(
            (Node("N1", "amber harbor"), Node("N2", "quiet mill")),
            (Edge("N2", "N1", "feeds"),),
        ),
        0.5,
    )
    assert verify_subset(sub, _full()).violations[0].kind == "unknown-edge"


def test_verify_dangling_endpoint_beats_unknown_edge():
    # The sub's own graph is well-formed, but the endpoint is absent from
    # the full graph's node set: dangling-endpoint, not unknown-edge.
    sub = EvidenceSubgraph(
        MemoryGraph(
            (Node("N1", "amber harbor"), Node("N7", "stray")),
            (Edge("N1", "N7", "feeds"),),
        ),
        0.5,
    )
    kinds = [v.kind for v in verify_subset(sub, _full()).violations]
    assert "dangling-endpoint" in kinds


def test_verify_accepts_random_subgraphs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        full = random_graph(rng, min_nodes=1)
        sub = random_subgraph(full, rng)
        assert verify_subset(sub, full).accepted


def test_subset_soundness_lines_verbatim():
    rng = np.random.default_rng(2)
    for _ in range(50):
        full = random_graph(rng, min_nodes=1)
        sub = random_subgraph(full, rng)
        if not verify_subset(sub, full).accepted:
            continue
        full_lines = set(emit(full).splitlines())
        for line in emit_evidence(sub).splitlines()[2:]:
            if line in ("<EDGES>", "[CONFIDENCE]", format_confidence(0.5)):
                continue
            assert line in full_lines
