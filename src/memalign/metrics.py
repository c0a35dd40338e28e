"""Answer-quality metrics (EM, token F1, ROUGE-1) and memory-efficiency
metrics (mem length, unique ratio, memory utilization).

Answer normalization follows the usual QA convention: lowercase, strip
punctuation, drop the articles a/an/the, collapse whitespace.  Multi-gold
scores take the max over the gold list.  Memory utilization uses a
containment oracle: a record counts as utilized when the normalized gold
answer occurs as a contiguous token subsequence of the normalized
retrieved text.
"""
from __future__ import annotations

import collections
import re
import string
from dataclasses import dataclass

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class AnswerPair:
    prediction: str
    gold: tuple[str, ...]

    def __post_init__(self):
        gold = (self.gold,) if isinstance(self.gold, str) else tuple(self.gold)
        if not gold:
            raise MetricsError("gold answer list must be nonempty")
        object.__setattr__(self, "gold", gold)


@dataclass(frozen=True)
class MemoryRecord:
    retrieved_text: str
    gold_answer: str
    has_gold_evidence: bool


def normalize_answer(s: str) -> str:
    """Lowercase, remove punctuation and articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    s = _ARTICLES_RE.sub(" ", s)
    return " ".join(s.split())


def _tokens(s: str) -> list[str]:
    return normalize_answer(s).split()


def exact_match(pair: AnswerPair) -> int:
    pred = normalize_answer(pair.prediction)
    return int(any(pred == normalize_answer(g) for g in pair.gold))


def _overlap_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = collections.Counter(pred_tokens) & collections.Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(pair: AnswerPair) -> float:
    """Multiset token-overlap F1, max over golds."""
    pred_tokens = _tokens(pair.prediction)
    return max(_overlap_f1(pred_tokens, _tokens(g)) for g in pair.gold)


def answer_scores(prediction: str, gold: str) -> tuple[int, float, bool]:
    """The exact match, the token F1 and the containment of one prediction
    against one gold answer, each text normalized once: what
    :func:`exact_match` and :func:`token_f1` give for the pair, and whether
    :func:`memory_utilization` counts the prediction as utilized."""
    pred_tokens, gold_tokens = _tokens(prediction), _tokens(gold)
    return (
        int(pred_tokens == gold_tokens),
        _overlap_f1(pred_tokens, gold_tokens),
        _contains_subsequence(pred_tokens, gold_tokens),
    )


def rouge1(pair: AnswerPair) -> float:
    """Unigram recall-precision F-measure with clipped multiset overlap,
    which on normalized tokens is exactly :func:`token_f1`."""
    return token_f1(pair)


def mem_length(records: list[MemoryRecord]) -> float:
    """Mean character count of retrieved memory text."""
    if not records:
        raise MetricsError("mem_length requires at least one record")
    return sum(len(r.retrieved_text) for r in records) / len(records)


def unique_ratio(records: list[MemoryRecord]) -> float:
    """Mean per-record fraction of distinct whitespace tokens (lowercased)."""
    ratios = []
    for record in records:
        tokens = record.retrieved_text.lower().split()
        if tokens:
            ratios.append(len(set(tokens)) / len(tokens))
    if not ratios:
        raise MetricsError("unique_ratio requires at least one non-empty record")
    return sum(ratios) / len(ratios)


def _contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def memory_utilization(records: list[MemoryRecord]) -> float:
    """Fraction of gold-evidence records whose retrieved text contains the
    normalized gold answer as a contiguous token subsequence."""
    gold_records = [r for r in records if r.has_gold_evidence]
    if not gold_records:
        raise MetricsError("memory_utilization requires gold-evidence records")
    hits = sum(
        _contains_subsequence(_tokens(r.retrieved_text), _tokens(r.gold_answer))
        for r in gold_records
    )
    return hits / len(gold_records)
