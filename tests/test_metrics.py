"""Answer-quality and memory-efficiency metric oracles, and the retrieval
scorer built on them."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memalign import metrics
from memalign.corpus import CorpusInstance
from memalign.graphs import Edge, EvidenceSubgraph, MemoryGraph, Node, emit, emit_evidence
from memalign.metrics import (
    AnswerPair,
    MemoryRecord,
    MetricsError,
    exact_match,
    mem_length,
    memory_utilization,
    normalize_answer,
    rouge1,
    token_f1,
    unique_ratio,
)
from memalign.pipeline import score_retrieval


def test_normalize_answer():
    assert normalize_answer("The  Amber Harbor!") == "amber harbor"
    assert normalize_answer("a  b, AN apple; the END.") == "b apple end"
    assert normalize_answer("") == ""


# Ten hand-computed EM / F1 / ROUGE-1 cases.
CASES = [
    # (prediction, golds, em, f1, rouge1)
    ("amber harbor", ("amber harbor",), 1, 1.0, 1.0),
    ("The Amber Harbor", ("amber harbor",), 1, 1.0, 1.0),
    ("harbor", ("amber harbor",), 0, 2 / 3, 2 / 3),
    ("amber harbor lighthouse", ("amber harbor",), 0, 0.8, 0.8),
    ("quiet mill", ("amber harbor",), 0, 0.0, 0.0),
    ("", ("amber harbor",), 0, 0.0, 0.0),
    ("harbor harbor", ("harbor",), 0, 2 / 3, 2 / 3),  # clipped multiset overlap
    ("amber harbor", ("quiet mill", "amber harbor"), 1, 1.0, 1.0),
    ("mill quiet", ("quiet mill",), 0, 1.0, 1.0),  # order-free unigram overlap
    ("an amber harbor.", ("Amber, harbor",), 1, 1.0, 1.0),
]


@pytest.mark.parametrize("pred,golds,em,f1,r1", CASES)
def test_hand_computed_table(pred, golds, em, f1, r1):
    pair = AnswerPair(pred, golds)
    assert exact_match(pair) == em
    assert token_f1(pair) == pytest.approx(f1)
    assert rouge1(pair) == pytest.approx(r1)


def test_em_implies_f1_fuzz():
    rng = np.random.default_rng(0)
    words = ["amber", "harbor", "mill", "quiet", "the", "a", "spire", "basin"]
    for _ in range(2000):
        pred = " ".join(rng.choice(words, size=int(rng.integers(0, 5))))
        gold = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
        pair = AnswerPair(pred, (gold,))
        if exact_match(pair) == 1:
            assert token_f1(pair) == pytest.approx(1.0)
            assert rouge1(pair) == pytest.approx(1.0)


def test_gold_list_must_be_nonempty():
    with pytest.raises(MetricsError):
        AnswerPair("x", ())


def test_mem_length():
    records = [
        MemoryRecord("abcd", "x", True),
        MemoryRecord("ab", "x", True),
    ]
    assert mem_length(records) == pytest.approx(3.0)
    with pytest.raises(MetricsError):
        mem_length([])


def test_unique_ratio():
    records = [
        MemoryRecord("a b a", "x", True),  # 2/3
        MemoryRecord("c c", "x", True),  # 1/2
        MemoryRecord("", "x", True),  # skipped
    ]
    assert unique_ratio(records) == pytest.approx((2 / 3 + 1 / 2) / 2)
    with pytest.raises(MetricsError):
        unique_ratio([MemoryRecord("", "x", True)])


def test_memory_utilization_contiguous_containment():
    records = [
        MemoryRecord("the amber harbor shines", "amber harbor", True),  # hit
        MemoryRecord("amber light on the harbor", "amber harbor", True),  # miss
        MemoryRecord("ignored", "amber", False),  # not gold evidence
    ]
    assert memory_utilization(records) == pytest.approx(0.5)
    with pytest.raises(MetricsError):
        memory_utilization([MemoryRecord("x", "y", False)])


def test_memory_utilization_normalizes_before_matching():
    records = [MemoryRecord("The Amber, Harbor!", "amber harbor", True)]
    assert memory_utilization(records) == 1.0


# -- the retrieval scorer ------------------------------------------------

# Words with punctuation, articles and mixed case, and the whitespace that
# str.split() breaks at, Unicode included; an answer may normalize to
# nothing.
PIECES = (
    "The", "the", "a", "An", "THE.", "AMBER", "amber", "Harbor", "harbor,",
    "harbor's", "mill.", "(quiet)", "\u00dcn\u00efcode", "\u2014", "!!", "...",
    "N1:", "->", "x-ray", "0.9", "\u00e9clair",
)
SPACES = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\u2028", "\x0b")
GOLD = EvidenceSubgraph(MemoryGraph((Node("N1", "amber harbor"),), ()), 0.9)


@st.composite
def texts(draw, min_words: int = 0) -> str:
    words = draw(st.lists(st.sampled_from(PIECES), min_size=min_words, max_size=6))
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=len(words) + 1,
                           max_size=len(words) + 1))
    return spaces[0] + "".join(w + s for w, s in zip(words, spaces[1:]))


@st.composite
def evidence(draw) -> EvidenceSubgraph:
    n = draw(st.integers(1, 3))
    nodes = tuple(Node(f"N{i + 1}", draw(texts(min_words=1))) for i in range(n))
    edges = tuple(Edge("N1", f"N{n}", draw(texts(min_words=1))) for _ in range(draw(st.integers(0, 1))))
    return EvidenceSubgraph(MemoryGraph(nodes, edges), draw(st.sampled_from((0.5, 0.9, 1.0))))


def instance_with_answer(k: int, answer: str) -> CorpusInstance:
    return CorpusInstance(
        id=f"i{k}", query="which harbor", gold_answer=answer,
        full_graph_text=emit(GOLD.graph, "full"), gold_subgraph_text=emit_evidence(GOLD),
        content_vector=(0.0, 0.0), segment_count=1,
    )


@st.composite
def retrievals(draw) -> tuple[EvidenceSubgraph, str]:
    """A retrieved subgraph (the gold one, or drawn) and a gold answer: free
    text, or the words of the evidence text, all or a run of them, each
    perhaps upper-cased, with punctuation or an article, between drawn
    spaces, so that exact match and containment both happen."""
    sub = GOLD if draw(st.booleans()) else draw(evidence())
    kind = draw(st.sampled_from(("free", "all", "run")))
    if kind == "free":
        return sub, draw(texts())
    words = emit_evidence(sub).split()
    if kind == "run":
        start = draw(st.integers(0, len(words) - 1))
        words = words[start : draw(st.integers(start + 1, len(words)))]
    words = [draw(st.sampled_from((w, w.upper(), w + "!", "the " + w))) for w in words]
    return sub, draw(st.sampled_from(SPACES)).join(words)


@given(st.lists(retrievals(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_the_scorer_gives_the_metric_functions_scores(cases):
    """Each instance scored alone gets exactly what exact_match, token_f1,
    rouge1 and memory_utilization give its evidence text and gold answer,
    and a corpus gets their means, bit for bit."""
    instances = [instance_with_answer(k, answer) for k, (_, answer) in enumerate(cases)]
    subgraphs = [sub for sub, _ in cases]
    records, scores = [], []
    for instance, sub in zip(instances, subgraphs):
        text = emit_evidence(sub)
        pair = AnswerPair(text, (instance.gold_answer,))
        record = MemoryRecord(text, instance.gold_answer, True)
        expected = (exact_match(pair), token_f1(pair), rouge1(pair), memory_utilization([record]))
        alone = score_retrieval([instance], [sub])
        assert (alone["em"], alone["f1"], alone["rouge1"], alone["utilization"]) == expected
        assert alone["subgraph_exact_match"] == (sub == GOLD)
        records.append(record)
        scores.append(expected)
    em, f1, r1, _ = zip(*scores)
    assert score_retrieval(instances, subgraphs) == {
        "em": float(np.mean(em)),
        "f1": float(np.mean(f1)),
        "rouge1": float(np.mean(r1)),
        "mem_length": mem_length(records),
        "unique_ratio": unique_ratio(records),
        "utilization": memory_utilization(records),
        "subgraph_exact_match": sum(sub == GOLD for sub in subgraphs) / len(subgraphs),
        "n": len(instances),
    }


def test_the_scorer_normalizes_each_text_once(monkeypatch):
    instances = [instance_with_answer(k, answer) for k, answer in enumerate(("harbor", "the mill"))]
    normalized = Counter()

    def counting(s):
        normalized[s] += 1
        return normalize_answer(s)

    monkeypatch.setattr(metrics, "normalize_answer", counting)
    score_retrieval(instances, [GOLD, GOLD])
    assert normalized == Counter([emit_evidence(GOLD)] * 2 + ["harbor", "the mill"])


def test_the_scorer_refuses_no_instances_and_a_count_mismatch():
    with pytest.raises(MetricsError, match="at least one instance"):
        score_retrieval([], [])
    with pytest.raises(MetricsError, match="1 retrieved subgraphs for 2 instances"):
        score_retrieval([instance_with_answer(0, "a"), instance_with_answer(1, "b")], [GOLD])
