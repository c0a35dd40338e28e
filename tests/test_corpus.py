"""Synthetic corpus generation, JSONL ingestion and the decoded sidecar."""
import dataclasses
import hashlib
import json
import marshal
import os
import struct
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memalign import corpus, graphs
from memalign.cli import main
from memalign.config import EngineConfig
from memalign.corpus import (
    CorpusError,
    chain_segment,
    corpus_to_jsonl,
    corpus_vocabulary,
    coverage_mask,
    generate_synthetic_corpus,
    instance_content,
    load_corpus,
    save_corpus,
    visible_gold,
)
from memalign.graphs import GraphFormatError, MemoryGraph, scan, verify_subset
from memalign.pipeline import build_runtime, prepare_retriever_examples
from memalign.vocab import VocabularyError
from util import (
    mutated_bytes,
    reference_parse_evidence,
    reference_parse_full_graph,
    reference_validate_records,
    reference_verify_subset,
)


def test_generation_is_deterministic():
    a = corpus_to_jsonl(generate_synthetic_corpus(20, 42))
    b = corpus_to_jsonl(generate_synthetic_corpus(20, 42))
    assert a == b


def test_generation_seed_sensitivity():
    a = corpus_to_jsonl(generate_synthetic_corpus(5, 42))
    b = corpus_to_jsonl(generate_synthetic_corpus(5, 43))
    assert a != b


def test_instances_validate_and_answer_in_gold_node():
    corpus = generate_synthetic_corpus(50, 7)
    assert len({i.id for i in corpus}) == 50
    for inst in corpus:
        full = inst.full_graph()
        gold = inst.gold_subgraph()
        assert verify_subset(gold, full).accepted
        assert any(
            inst.gold_answer in node.description for node in gold.graph.nodes
        )
        assert inst.gold_answer in inst.query or any(
            inst.gold_answer in n.description for n in gold.graph.nodes
        )


def test_gold_is_prefix_chain():
    for inst in generate_synthetic_corpus(20, 3):
        gold = inst.gold_subgraph().graph
        g = len(gold.nodes)
        assert [n.id for n in gold.nodes] == [f"N{k}" for k in range(1, g + 1)]
        assert [(e.source, e.target) for e in gold.edges] == [
            (f"N{k}", f"N{k + 1}") for k in range(1, g)
        ]


def test_distractor_edges_stay_among_distractors():
    for inst in generate_synthetic_corpus(30, 9):
        g = len(inst.gold_subgraph().graph.nodes)
        gold_ids = {f"N{k}" for k in range(1, g + 1)}
        chain_pairs = {(f"N{k}", f"N{k+1}") for k in range(1, g)}
        for e in inst.full_graph().edges:
            if (e.source, e.target) in chain_pairs:
                continue
            assert e.source not in gold_ids and e.target not in gold_ids


def test_invalid_shapes_rejected(tmp_path):
    with pytest.raises(CorpusError):
        generate_synthetic_corpus(0, 1)
    with pytest.raises(CorpusError):
        generate_synthetic_corpus(1, 1, segment_count=0)
    with pytest.raises(CorpusError, match="at least two segments"):
        generate_synthetic_corpus(1, 1, segment_count=1)
    # A segment past d_c would get an empty block, and the chain positions
    # there no signal (with d_c=4 and 8 segments, positions 2 and 4).
    with pytest.raises(CorpusError, match="segment_count 8 exceeds d_c 4"):
        generate_synthetic_corpus(1, 1, segment_count=8, d_c=4)
    assert generate_synthetic_corpus(1, 1, segment_count=4, d_c=4)[0].segment_count == 4
    for segments in ("65", "1"):
        assert main(["gen-data", "--n", "1", "--segment-count", segments, "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "corpus.jsonl").exists()


def test_save_load_round_trip(tmp_path):
    corpus = generate_synthetic_corpus(10, 4)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a"}\nnot json\n')
    with pytest.raises(CorpusError, match="line 1: missing field"):
        load_corpus(path)
    good = generate_synthetic_corpus(1, 1)[0].to_json()
    path.write_text(good + "\nnot json\n")
    with pytest.raises(CorpusError, match="line 2: malformed JSON"):
        load_corpus(path)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_load_keeps_unicode_line_separators_inside_strings(tmp_path, separator):
    instances = [
        dataclasses.replace(inst, query=f"where{separator}is the harbor")
        for inst in generate_synthetic_corpus(3, 5)
    ]
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(json.loads(inst.to_json()), ensure_ascii=False) for inst in instances]
    assert all(separator in line for line in lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_corpus(path) == instances


def test_load_reads_crlf_files(tmp_path):
    instances = generate_synthetic_corpus(3, 6)
    path = tmp_path / "c.jsonl"
    path.write_bytes(corpus_to_jsonl(instances).replace("\n", "\r\n").encode("utf-8"))
    assert load_corpus(path) == instances
    path.write_bytes(b"\r\n".join([instances[0].to_json().encode(), b"not json", b""]))
    with pytest.raises(CorpusError, match="line 2: malformed JSON"):
        load_corpus(path)


GOOD_LINE = generate_synthetic_corpus(1, 1)[0].to_json().encode()


def test_load_rejects_duplicate_ids(tmp_path):
    inst = generate_synthetic_corpus(1, 1)[0]
    path = tmp_path / "c.jsonl"
    path.write_text(inst.to_json() + "\n" + inst.to_json() + "\n")
    with pytest.raises(CorpusError, match="duplicate id"):
        load_corpus(path)


def test_load_rejects_subset_violations(tmp_path):
    inst = generate_synthetic_corpus(1, 1)[0]
    record = json.loads(inst.to_json())
    record["gold_subgraph_text"] = (
        "[EVIDENCE_SUBGRAPH]\n<NODES>\nN999: intruder\n<EDGES>\n[CONFIDENCE]\n0.9\n"
    )
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusError, match="unknown-node"):
        load_corpus(path)


# A field the record leaves out.
MISSING = object()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("content_vector", 0.5, "content_vector is not a list of numbers"),
        ("content_vector", [0.5] * 63, "content_vector has 63 entries, expected 64"),
        ("content_vector", [0.5] * 63 + [float("nan")], "content_vector has a non-finite entry"),
        ("content_vector", [float("inf")] + [0.5] * 63, "content_vector has a non-finite entry"),
        ("content_vector", [0.5] * 63 + [10**400], "content_vector has an entry beyond float64"),
        ("segment_count", 0, "segment_count 0 is not a positive integer"),
        ("segment_count", None, "segment_count None is not a positive integer"),
        ("segment_count", 2.5, r"segment_count 2\.5 is not a positive integer"),
        ("id", ["x"], "id is not a string"),
        ("query", 7, "query is not a string"),
        ("gold_answer", None, "gold_answer is not a string"),
        ("full_graph_text", 5, "full_graph_text is not a string"),
        ("gold_subgraph_text", None, "gold_subgraph_text is not a string"),
        ("segment_count", True, "segment_count True is not a positive integer"),
        ("segment_count", 65, "segment_count 65 exceeds d_c 64"),
        pytest.param(
            "content_vector", "5" * 64, "content_vector is not a list of numbers",
            id="content_vector-digit-string",
        ),
        ("content_vector", ["0.5"] * 64, "content_vector is not a list of numbers"),
        ("content_vector", [True] * 64, "content_vector is not a list of numbers"),
        ("content_vector", None, "content_vector is not a list of numbers"),
        pytest.param(
            "content_vector", MISSING, "missing field content_vector",
            id="content_vector-missing",
        ),
    ],
)
def test_load_rejects_unusable_records(tmp_path, field, value, message):
    good = generate_synthetic_corpus(1, 1)[0].to_json()
    record = json.loads(good)
    record["id"] = "other"
    if value is MISSING:
        del record[field]
    else:
        record[field] = value
    path = tmp_path / "c.jsonl"
    path.write_text(good + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CorpusError, match=f"line 2: {message}"):
        load_corpus(path, d_c=64)


@pytest.mark.parametrize(
    "data, line",
    [
        pytest.param(b"\xff" + GOOD_LINE, 1, id="first-byte"),
        pytest.param(GOOD_LINE + b"\n\xff\n", 2, id="own-line"),
        pytest.param(GOOD_LINE + b"\r\n" + GOOD_LINE[:9] + b"\xff", 2, id="after-crlf"),
        # A lone carriage return ends a line, as in Path.read_text.
        pytest.param(GOOD_LINE + b"\r\r\n\xc3", 3, id="after-lone-cr"),
    ],
)
def test_bytes_that_are_not_utf8_are_a_corpus_error_naming_the_line(tmp_path, data, line):
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    with pytest.raises(CorpusError, match=f"^line {line}: not UTF-8 text "):
        load_corpus(path)


def test_wrongly_typed_corpus_is_a_validation_error(tmp_path):
    record = json.loads(generate_synthetic_corpus(1, 1)[0].to_json())
    record["full_graph_text"] = 5
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert main(["train-retriever", "--corpus", str(path), "--out", str(tmp_path)]) == 1


def _reference_graph_error(record: dict) -> str | None:
    """What validating the record's graph texts with the reference parser and
    subset check reports, as a CorpusError message (None: the texts pass)."""
    try:
        full = reference_parse_full_graph(record["full_graph_text"])
        sub = reference_parse_evidence(record["gold_subgraph_text"])
    except GraphFormatError as exc:
        return f"instance {record['id']!r}: invalid graph text ({exc})"
    report = reference_verify_subset(sub, full)
    if report.accepted:
        return None
    kinds = ", ".join(v.kind for v in report.violations)
    return f"instance {record['id']!r}: gold subgraph fails subset verification ({kinds})"


# Seed 1, index 14: a chain of three nodes and two extra edges.
GOOD = generate_synthetic_corpus(15, 1)[14]
# A line of GOOD's full graph that its gold lacks: an edge between two
# distractor nodes, declared only in the full graph.
DISTRACTOR_EDGE = GOOD.full_graph_text.splitlines()[-1]
TRICKY = "misty forge: N2 -> N3: feeds"


@pytest.mark.parametrize(
    "field, edit",
    [
        ("full_graph_text", lambda t: ""),
        ("full_graph_text", lambda t: t.replace("<EDGES>", "<NODES>")),
        ("full_graph_text", lambda t: t.replace("N2:", "N1:", 1)),
        ("full_graph_text", lambda t: t + "N1 -> N99: feeds\n"),
        ("full_graph_text", lambda t: t.replace(" -> ", " -> N1 -> ", 1)),
        ("full_graph_text", lambda t: t.replace("\n", "\r\n")),
        ("full_graph_text", lambda t: t.replace("\n", "\n\n \t\n")),
        ("gold_subgraph_text", lambda t: t.replace("[EVIDENCE_SUBGRAPH]", "[FULL_GRAPH]")),
        ("gold_subgraph_text", lambda t: t.replace("[CONFIDENCE]\n0.9", "")),
        ("gold_subgraph_text", lambda t: t.replace("0.9", "1.5")),
        ("gold_subgraph_text", lambda t: t.replace("0.9", "0.9\n0.9")),
        ("gold_subgraph_text", lambda t: t.replace("<EDGES>", "N99: ghost\n<EDGES>")),
        ("gold_subgraph_text", lambda t: t.replace("N1: ", "N1: tampered ", 1)),
        ("gold_subgraph_text", lambda t: t.replace("N1 -> N2: ", "N1 -> N2: tampered ", 1)),
        ("gold_subgraph_text", lambda t: t.replace("N1 -> N2", "N2 -> N1", 1)),
        ("gold_subgraph_text", lambda t: t.replace(
            "<EDGES>", "N99: ghost\n<EDGES>\nN1 -> N99: feeds\nN3 -> N1: feeds")),
        ("gold_subgraph_text", lambda t: t.replace("\n", "\r\n")),
        # Gold edits that the proof from the full graph cannot place, so
        # that the gold text is scanned and checked as it was before.
        ("gold_subgraph_text", lambda t: t.replace("<NODES>\n", "<NODES>\nN1: misty forge\n")),
        ("gold_subgraph_text", lambda t: t.replace("[CONFIDENCE]", DISTRACTOR_EDGE + "\n[CONFIDENCE]")),
        ("gold_subgraph_text", lambda t: t.replace("N1: misty forge\n", "")),
        ("gold_subgraph_text", lambda t: t.replace("N3: misty viaduct\n", "")),
        ("gold_subgraph_text", lambda t: t.replace("<EDGES>", "[CONFIDENCE]\n<EDGES>")),
        ("gold_subgraph_text", lambda t: t.replace("misty forge", TRICKY)),
        ("gold_subgraph_text", lambda t: t.replace("\n", " \n  ")),
        ("gold_subgraph_text", lambda t: t.replace("\n", "\t\n\t")),
        ("gold_subgraph_text", lambda t: t.replace("\n", " \r\n")),
        ("gold_subgraph_text", lambda t: t.replace("0.9", "0.9\n[CONFIDENCE]\n0.9")),
        ("gold_subgraph_text", lambda t: t.replace("0.9", "-0.1")),
        ("gold_subgraph_text", lambda t: t.replace("0.9", "nan")),
        # A description holding ": " and " -> " in both texts: the proof
        # splits each line where the scan's patterns do.
        (("full_graph_text", "gold_subgraph_text"), lambda t: t.replace("misty forge", TRICKY)),
    ],
)
def test_load_reports_graph_errors_like_the_reference_parser(tmp_path, field, edit):
    record = json.loads(GOOD.to_json())
    for name in (field,) if isinstance(field, str) else field:
        record[name] = edit(record[name])
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n")
    expected = _reference_graph_error(record)
    if expected is None:
        assert load_corpus(path)[0].full_graph_text == record["full_graph_text"]
        return
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value) == expected


# Words of descriptions and relations: some hold ": " or " -> " once
# joined, or look like a node id or a marker.
GRAPH_WORDS = ("amber", "keep", "feeds", "x:", "->", "N1:", "N2", "<EDGES>")
PADDING = (" ", "\t", "\r", " \t ", "\u3000")
CONFIDENCE_LINES = (
    "0.9", "0", "1", "1.0", "1.5", "-0.1", "nan", "inf", "0.9 ", "0_5", "0.5 0.5", "abc", "",
)
GOLD_EDITS = ("reorder", "repeat", "move", "other-section", "full-line", "pad", "blank",
              "delete", "confidence", "extra-confidence", "marker")


@st.composite
def gold_records(draw, edits=True):
    """A corpus record whose full graph is random and whose gold text is an
    exact subgraph of it after a few line edits: lines reordered, repeated,
    moved between sections, taken from the full graph's other section or
    from lines the gold left out, padded with whitespace, deleted (markers
    and values too), markers inserted, and confidence values replaced or
    followed by more."""
    words = st.lists(st.sampled_from(GRAPH_WORDS), min_size=1, max_size=3).map(" ".join)
    n = draw(st.integers(1, 5))
    node_lines = [f"N{i}: {draw(words)}" for i in range(1, n + 1)]
    edge_lines = [
        f"N{a} -> N{b}: {draw(words)}"
        for a, b in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5))
        if a != b
    ]
    kept = st.integers(0, 3).map(bool)  # three in four
    keep = {i for i in range(1, n + 1) if draw(kept)}
    gold_nodes = [line for i, line in enumerate(node_lines, start=1) if i in keep]
    gold_edges = [
        line for line in edge_lines
        if {int(end[1:]) for end in line.split(": ")[0].split(" -> ")} <= keep and draw(kept)
    ]
    sections = [gold_nodes, gold_edges]
    tail = ["[CONFIDENCE]", str(draw(st.integers(0, 10)) / 10)]
    for _ in range(draw(st.integers(0, 3)) if edits else 0):
        edit = draw(st.sampled_from(GOLD_EDITS))
        section = draw(st.sampled_from(sections))
        where = draw(st.integers(0, len(section)))
        if edit == "reorder":
            section[:] = draw(st.permutations(section))
        elif edit == "repeat" and section:
            section.insert(where, section[draw(st.integers(0, len(section) - 1))])
        elif edit == "move" and section:
            other = sections[1] if section is sections[0] else sections[0]
            other.insert(draw(st.integers(0, len(other))), section.pop(where % len(section)))
        elif edit == "other-section" and (node_lines if section is sections[1] else edge_lines):
            pool = node_lines if section is sections[1] else edge_lines
            section.insert(where, draw(st.sampled_from(pool)))
        elif edit == "full-line":
            section.insert(where, draw(st.sampled_from(node_lines + edge_lines)))
        elif edit == "pad" and section:
            i = where % len(section)
            section[i] = draw(st.sampled_from(PADDING)) * draw(st.integers(0, 1)) + section[i] + draw(
                st.sampled_from(PADDING)
            )
        elif edit == "delete":
            block = draw(st.sampled_from((section, tail)))
            if block:
                del block[where % len(block)]
        elif edit == "blank":
            section.insert(where, draw(st.sampled_from(("",) + PADDING)))
        elif edit == "confidence":
            tail[-1] = draw(st.sampled_from(CONFIDENCE_LINES))
        elif edit == "extra-confidence":
            tail += draw(st.lists(st.sampled_from(CONFIDENCE_LINES + ("[CONFIDENCE]",)), min_size=1, max_size=2))
        elif edit == "marker":
            section.insert(where, draw(st.sampled_from(
                ("[EVIDENCE_SUBGRAPH]", "<NODES>", "<EDGES>", "[CONFIDENCE]", "[FULL_GRAPH]")
            )))
    lines = ["[EVIDENCE_SUBGRAPH]", "<NODES>", *gold_nodes, "<EDGES>", *gold_edges, *tail]
    gold = "\n".join(lines) + "\n"
    full = "\n".join(["[FULL_GRAPH]", "<NODES>", *node_lines, "<EDGES>", *edge_lines]) + "\n"
    ending = draw(st.sampled_from(("\n",) * 8 + ("\r\n", ""))) if edits else "\n"
    gold = gold.replace("\n", ending) if ending else gold[:-1]
    return {
        "id": "inst", "query": "q", "gold_answer": "a", "full_graph_text": full,
        "gold_subgraph_text": gold, "content_vector": [0.5] * SMALL_D_C, "segment_count": 2,
    }


def _oracle_outcome(text):
    """What the reference validator makes of the records of a corpus text:
    its instances with their kept scans, or the message of its refusal."""
    try:
        instances = reference_validate_records(corpus.decode_corpus(text), SMALL_D_C)
    except CorpusError as exc:
        return str(exc)
    return [(i, vars(i)["_full_scan"], vars(i)["_gold_scan"]) for i in instances]


@given(gold_records())
@example({**json.loads(GOOD.to_json()), "content_vector": [0.5] * 8, "segment_count": 2})
@settings(max_examples=400, deadline=None)
def test_the_validator_accepts_and_refuses_gold_texts_as_the_reference_does(record):
    text = json.dumps(record) + "\n"
    expected = _oracle_outcome(text)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "c.jsonl")
        path.write_text(text, encoding="utf-8")
        for load in ("decoded", "from the sidecar"):
            try:
                instances = load_corpus(path, d_c=SMALL_D_C)
            except CorpusError as exc:
                assert str(exc) == expected, load
                continue
            kept = [(i, vars(i)["_full_scan"], vars(i)["_gold_scan"]) for i in instances]
            assert kept == expected, load
            assert sidecar_of(path).exists()


@given(gold_records(edits=False))
@settings(max_examples=200, deadline=None)
def test_every_exact_subgraph_is_proven_from_its_full_scan(record):
    """A gold text that emit writes for a subgraph of the full graph is
    placed line by line, never scanned, even where its descriptions and
    relations hold ": " and " -> "."""
    full = scan(record["full_graph_text"], graphs.FULL_HEADER)
    gold = record["gold_subgraph_text"]
    expected = scan(gold, graphs.EVIDENCE_HEADER)
    with mock.patch.object(graphs, "scan", side_effect=AssertionError("scanned")):
        assert graphs.scan_subgraph(gold, full) == (expected, [])


def test_a_proven_gold_scan_shares_the_full_scans_strings_and_tuples(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic_corpus(20, 3), path)
    for load in ("decoded", "from the sidecar"):
        for instance in load_corpus(path):
            full_nodes, full_edges, _ = vars(instance)["_full_scan"]
            gold = vars(instance)["_gold_scan"]
            assert gold == scan(instance.gold_subgraph_text, graphs.EVIDENCE_HEADER), load
            gold_nodes, gold_edges, _ = gold
            assert all(d is full_nodes[i] for i, d in gold_nodes.items()), load
            assert all(any(e is f for f in full_edges) for e in gold_edges), load


# -- segment geometry ----------------------------------------------------


def test_chain_segments_alternate_sides():
    # positions 1..4 with 8 segments: sides 0,1,0,1
    segs = [chain_segment(p, 8) for p in (1, 2, 3, 4)]
    assert segs == [0, 4, 1, 6]


def test_coverage_mask_fractions():
    assert coverage_mask(0, 0.1, 8) == {0}
    assert coverage_mask(0, 0.5, 8) == {0, 1}
    assert coverage_mask(0, 1.0, 8) == {0, 1, 2, 3}
    assert coverage_mask(1, 0.5, 8) == {4, 5}
    with pytest.raises(CorpusError):
        coverage_mask(2, 0.5, 8)
    assert coverage_mask(1, 0.0, 8) == set()
    assert coverage_mask(1, 1.0, 2) == {1}
    for side in (0, 1):
        for segments in (1, 0):
            with pytest.raises(CorpusError, match="at least two segments"):
                coverage_mask(side, 1.0, segments)
    for fraction in (-0.5, -1e-12, 1.0 + 1e-12, 1.5, float("nan"), float("inf")):
        with pytest.raises(CorpusError, match="outside \\[0, 1\\]"):
            coverage_mask(0, fraction, 8)


def test_visible_gold_restricts_chain():
    inst = generate_synthetic_corpus(5, 11)[4]  # seed 11, index 4: a chain of four
    assert len(inst.gold_subgraph().graph.nodes) == 4
    full_vis = visible_gold(inst, set(range(8)))
    assert full_vis == inst.gold_subgraph()
    none_vis = visible_gold(inst, set())
    assert none_vis.graph.nodes == ()
    # side-0 coverage only: even chain positions (side 1) hidden
    side0 = visible_gold(inst, coverage_mask(0, 1.0, 8))
    ids = [n.id for n in side0.graph.nodes]
    assert ids == ["N1", "N3"]


def test_instance_content_segments():
    inst = generate_synthetic_corpus(1, 2)[0]
    content = instance_content(inst)
    assert content.segment_count == inst.segment_count
    sides = {p for _, p in content.segment_tags}
    assert sides == {"explicit-sim", "latent-sim"}


def test_corpus_vocabulary_closed_and_covers_gold():
    corpus = generate_synthetic_corpus(10, 5)
    vocab = corpus_vocabulary(corpus)
    with pytest.raises(VocabularyError):
        vocab.id_of("unseen")
    assert len(vocab) <= 200
    assert "0.9" in vocab


def test_training_preparation_scans_each_graph_text_once(tmp_path, monkeypatch):
    """Across load_corpus, corpus_vocabulary and prepare_retriever_examples
    every full graph text is scanned exactly once and no valid gold text is
    scanned, whether the load decodes the JSONL or reads its sidecar: the
    validator proves each gold from its full graph's scan, and the graphs
    are built from the validator's results, which the builds then drop."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(6, 8), path)
    scanned = Counter()

    def counting(text, header):
        scanned[text] += 1
        return scan(text, header)

    monkeypatch.setattr(graphs, "scan", counting)
    monkeypatch.setattr(corpus, "scan", counting)
    runtime = build_runtime(EngineConfig())
    for load in ("decoded", "from the sidecar"):
        scanned.clear()
        instances = load_corpus(path)
        assert sidecar_of(path).exists(), load
        # Loading keeps each scan and builds no graph.
        assert all(
            {"_full_scan", "_gold_scan"} <= vars(i).keys()
            and not {"_full_graph", "_gold_subgraph"} & vars(i).keys()
            for i in instances
        ), load
        corpus_vocabulary(instances)
        examples = prepare_retriever_examples(runtime, instances, coverage_levels=(0.5, 1.0))
        assert scanned == Counter(i.full_graph_text for i in instances), load
        assert max(scanned.values()) == 1, load
        assert not any({"_full_scan", "_gold_scan"} & vars(i).keys() for i in instances), load
        # Every example of an instance holds the instance's one graph.
        by_id = {i.id: i for i in instances}
        assert all(e.full_graph is by_id[e.id.split("#")[0]].full_graph() for e in examples), load
        assert len(examples) == 3 * len(instances), load


def test_graph_objects_are_built_once_on_first_use(tmp_path, monkeypatch):
    instances = generate_synthetic_corpus(6, 8)
    path = tmp_path / "corpus.jsonl"
    save_corpus(instances, path)
    expected = Counter(g for i in instances for g in (i.full_graph(), i.gold_subgraph().graph))
    built = []
    post_init = MemoryGraph.__post_init__

    def counting(graph):
        post_init(graph)
        built.append(graph)

    monkeypatch.setattr(MemoryGraph, "__post_init__", counting)
    load_corpus(path)
    assert built == []
    config = tmp_path / "engine.cfg"
    config.write_text("[engine]\nd_h = 64\n\n[distillation]\nEpochs = 1\n")
    assert main([
        "train-retriever", "--corpus", str(path), "--config", str(config),
        "--out", str(tmp_path / "run"),
    ]) == 0
    assert Counter(built) == expected


# -- the decoded sidecar -------------------------------------------------


def sidecar_of(path):
    return path.with_name(path.name + ".decoded")


def count_decodes(monkeypatch) -> list:
    """Patch the JSONL decoder to record each call; returns the record."""
    calls = []
    decode = corpus.decode_corpus

    def counting(text):
        calls.append(text)
        return decode(text)

    monkeypatch.setattr(corpus, "decode_corpus", counting)
    return calls


def test_a_sidecar_hit_reads_no_json_and_validates_equal_instances(tmp_path, monkeypatch):
    instances = generate_synthetic_corpus(5, 2)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    decode = corpus.decode_corpus
    decodes = count_decodes(monkeypatch)
    validated = []
    validate = corpus.validate_records
    monkeypatch.setattr(
        corpus, "validate_records", lambda records, d_c: validated.append(d_c) or validate(records, d_c)
    )
    miss = load_corpus(path)
    assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "c.jsonl.decoded"]
    hit = load_corpus(path)
    assert hit == miss == instances
    assert len(decodes) == 1 and validated == [64, 64]
    # The sidecar holds the decoder's records, line numbers included.
    digest = hashlib.sha256(path.read_bytes()).digest()
    assert corpus._read_sidecar(sidecar_of(path), digest) == list(decode(decodes[0]))


def test_editing_the_corpus_decodes_it_again_and_rewrites_the_sidecar(tmp_path, monkeypatch):
    instances = generate_synthetic_corpus(4, 3)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    load_corpus(path)
    before = sidecar_of(path).read_bytes()
    decodes = count_decodes(monkeypatch)
    # The same bytes in another order: same size, other content.
    swapped = instances[1:] + instances[:1]
    save_corpus(swapped, path)
    assert load_corpus(path) == swapped and len(decodes) == 1
    after = sidecar_of(path).read_bytes()
    assert after != before
    assert load_corpus(path) == swapped and len(decodes) == 1
    save_corpus(instances, path)
    assert load_corpus(path) == instances and len(decodes) == 2
    assert sidecar_of(path).read_bytes() == before


def _flip(where):
    """Damage that flips one bit of the byte at ``where``: an index, or a
    function of the data that gives one."""

    def damage(data):
        data = bytearray(data)
        data[where(data) if callable(where) else where] ^= 0x10
        return bytes(data)

    return damage


def _first_content_width(data):
    """The index of the width byte of the first record's content tuple: the
    tuple's short-tuple code and width come just before its first float's
    type code and eight bytes."""
    first = generate_synthetic_corpus(3, 5)[0].content_vector[0]
    return data.index(struct.pack("<d", first)) - 2


TAG = len(corpus.SIDECAR_TAG)
HEAD = TAG + 32 + 4
SIDECAR_DAMAGE = {
    "empty": lambda data: b"",
    "tag only": lambda data: data[:TAG],
    "header only": lambda data: data[:HEAD],
    "half": lambda data: data[: len(data) // 2],
    "last byte cut": lambda data: data[:-1],
    "extra byte": lambda data: data + b"\0",
    "tag": _flip(3),
    "corpus digest": _flip(TAG + 5),
    "checksum": _flip(TAG + 34),
    "record count": _flip(HEAD + 1),
    "content width": _flip(_first_content_width),
    "rows": _flip(HEAD + 60),
    "content": _flip(-3),
}


@pytest.mark.parametrize("damage", sorted(SIDECAR_DAMAGE))
def test_a_damaged_sidecar_is_ignored_and_rewritten(tmp_path, monkeypatch, damage):
    instances = generate_synthetic_corpus(3, 5)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    load_corpus(path)
    good = sidecar_of(path).read_bytes()
    sidecar_of(path).write_bytes(SIDECAR_DAMAGE[damage](good))
    decodes = count_decodes(monkeypatch)
    assert load_corpus(path) == instances and len(decodes) == 1
    assert sidecar_of(path).read_bytes() == good


def _rewrite_body(data: bytes, rows) -> bytes:
    """A sidecar holding ``rows`` under the header of ``data``, its checksum
    recomputed, as damage that the checksum cannot catch."""
    body = marshal.dumps(rows)
    return data[: HEAD - 4] + corpus._checksum(body) + body


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda rows: tuple(rows), id="rows-a-tuple"),
        pytest.param(lambda rows: [list(rows[0])] + rows[1:], id="row-a-list"),
        pytest.param(lambda rows: [rows[0][:7]] + rows[1:], id="row-short"),
        pytest.param(lambda rows: [rows[0] + (0,)] + rows[1:], id="row-long"),
        pytest.param(lambda rows: [(1.0,) + rows[0][1:]] + rows[1:], id="line-a-float"),
        pytest.param(lambda rows: [rows[0][:2] + (5,) + rows[0][3:]] + rows[1:], id="id-an-int"),
        pytest.param(lambda rows: [rows[0][:7] + (list(rows[0][7]),)] + rows[1:], id="content-a-list"),
        pytest.param(lambda rows: [rows[0][:7] + (("0.5",) + rows[0][7][1:],)] + rows[1:], id="content-entry-a-string"),
        pytest.param(lambda rows: [rows[0][:7] + ((10**400,) + rows[0][7][1:],)] + rows[1:], id="content-entry-beyond-float64"),
        pytest.param(lambda rows: {"rows": rows}, id="not-a-list"),
    ],
)
def test_a_sidecar_of_malformed_rows_is_ignored_and_rewritten(tmp_path, monkeypatch, edit):
    instances = generate_synthetic_corpus(3, 5)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    load_corpus(path)
    good = sidecar_of(path).read_bytes()
    rows = marshal.loads(good[HEAD:])
    sidecar_of(path).write_bytes(_rewrite_body(good, edit(rows)))
    decodes = count_decodes(monkeypatch)
    assert load_corpus(path) == instances and len(decodes) == 1
    assert sidecar_of(path).read_bytes() == good


@pytest.mark.parametrize("tag", [
    pytest.param(
        corpus.SIDECAR_TAG.replace(f" {sys.implementation.cache_tag}".encode(), b" other-interpreter"),
        id="cache-tag",
    ),
    pytest.param(
        corpus.SIDECAR_TAG.replace(f" marshal {marshal.version} ".encode(), b" marshal 3 "),
        id="marshal-version",
    ),
    pytest.param(b"memalign decoded corpus 1\n", id="format"),
])
def test_a_sidecar_of_another_interpreter_or_format_is_a_miss_and_rewritten(tmp_path, monkeypatch, tag):
    instances = generate_synthetic_corpus(3, 5)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    load_corpus(path)
    good = sidecar_of(path).read_bytes()
    assert tag != corpus.SIDECAR_TAG
    sidecar_of(path).write_bytes(tag + good[TAG:])
    decodes = count_decodes(monkeypatch)
    assert load_corpus(path) == instances and len(decodes) == 1
    assert sidecar_of(path).read_bytes() == good


def test_the_sidecar_tag_names_the_marshal_version_and_the_interpreter():
    tag = corpus.SIDECAR_TAG.decode()
    assert tag.endswith("\n")
    assert f" marshal {marshal.version} " in tag
    assert tag.rstrip("\n").endswith(f" {sys.implementation.cache_tag}")


def test_records_the_validator_refuses_leave_the_verdict_to_the_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic_corpus(2, 6), path)
    load_corpus(path, d_c=64)
    message = "^line 1: content_vector has 64 entries, expected 32$"
    with pytest.raises(CorpusError, match=message):
        load_corpus(path, d_c=32)
    sidecar_of(path).unlink()
    with pytest.raises(CorpusError, match=message):
        load_corpus(path, d_c=32)
    assert not sidecar_of(path).exists()


def test_a_failed_sidecar_write_leaves_the_load_working_and_no_temp_file(tmp_path, monkeypatch):
    instances = generate_synthetic_corpus(3, 4)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    sidecar_of(path).mkdir()
    assert load_corpus(path) == instances == load_corpus(path)
    assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "c.jsonl.decoded"]
    assert not any(sidecar_of(path).iterdir())
    sidecar_of(path).rmdir()

    def refuse(source, target):
        raise PermissionError(f"cannot replace {target}")

    monkeypatch.setattr(os, "replace", refuse)
    assert load_corpus(path) == instances
    assert os.listdir(tmp_path) == ["c.jsonl"]


# A small corpus whose bytes the property below mutates: short content
# vectors, so that most mutations land in the text fields and the structure.
SMALL_D_C = 8
SMALL_CORPUS = corpus_to_jsonl(generate_synthetic_corpus(2, 3, segment_count=4, d_c=SMALL_D_C)).encode()


def _load_outcome(path):
    """The instances a corpus loads to, or the type and message of its
    refusal.  Any other exception propagates."""
    try:
        return load_corpus(path, d_c=SMALL_D_C)
    except CorpusError as exc:
        return type(exc), str(exc)


@given(mutated_bytes(SMALL_CORPUS))
@example(SMALL_CORPUS.replace(b"inst", b"\xffnst", 1))
@settings(max_examples=300, deadline=None)
def test_a_mutated_corpus_loads_or_is_refused_with_a_corpus_error(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "c.jsonl")
        path.write_bytes(data)
        _load_outcome(path)


@given(mutated_bytes(SMALL_CORPUS))
@example(SMALL_CORPUS.replace(b"\n", b"\r", 1))
@example(SMALL_CORPUS)
@settings(max_examples=200, deadline=None)
def test_a_stale_sidecar_leaves_the_outcome_of_a_mutated_corpus_as_it_is(data):
    """Beside a sidecar written from the unmutated bytes, a mutated corpus
    loads to the same instances, or is refused with the same message, as
    with no sidecar."""
    with tempfile.TemporaryDirectory() as directory:
        bare, beside = Path(directory, "bare"), Path(directory, "beside")
        bare.mkdir()
        beside.mkdir()
        (beside / "c.jsonl").write_bytes(SMALL_CORPUS)
        load_corpus(beside / "c.jsonl", d_c=SMALL_D_C)
        assert sidecar_of(beside / "c.jsonl").exists()
        for root in (bare, beside):
            (root / "c.jsonl").write_bytes(data)
        assert _load_outcome(beside / "c.jsonl") == _load_outcome(bare / "c.jsonl")
