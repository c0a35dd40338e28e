"""Synthetic corpus generation, JSONL ingestion and the decoded sidecar."""
import dataclasses
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

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
    ],
)
def test_load_reports_graph_errors_like_the_reference_parser(tmp_path, field, edit):
    record = json.loads(GOOD.to_json())
    record[field] = edit(record[field])
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n")
    expected = _reference_graph_error(record)
    if expected is None:
        assert load_corpus(path)[0].full_graph_text == record["full_graph_text"]
        return
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value) == expected


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
    every graph text is scanned exactly once, whether the load decodes the
    JSONL or reads its sidecar: the graphs are built from the validator's
    scans, which the builds then drop."""
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
        texts = [t for i in instances for t in (i.full_graph_text, i.gold_subgraph_text)]
        assert scanned == Counter(texts) and max(scanned.values()) == 1, load
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
    digest = corpus.hashlib.blake2b(path.read_bytes(), digest_size=16).digest()
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


def _flip(index):
    def damage(data):
        data = bytearray(data)
        data[index] ^= 0x10
        return bytes(data)

    return damage


TAG = len(corpus.SIDECAR_TAG)
SIDECAR_DAMAGE = {
    "empty": lambda data: b"",
    "tag only": lambda data: data[:TAG],
    "header only": lambda data: data[: TAG + 36],
    "half": lambda data: data[: len(data) // 2],
    "last byte cut": lambda data: data[:-1],
    "extra byte": lambda data: data + b"\0",
    "tag": _flip(3),
    "corpus digest": _flip(TAG + 5),
    "checksum": _flip(TAG + 18),
    "record count": _flip(TAG + 20),
    "content width": _flip(TAG + 28),
    "rows": _flip(TAG + 60),
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
