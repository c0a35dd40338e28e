"""Token vocabulary over the graph-linearization surface.

Ids 0-9 are reserved: sequence sentinels, UNK, and the seven structural
markers of the evidence-subgraph format.  Word tokens are whitespace-split
surface words of node ids, descriptions, relations, and confidence values,
with ids from 10 up; a word spelled like a reserved token is still a word.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

BOS = 0
EOS = 1
UNK = 2
TOK_HEADER = 3
TOK_NODES = 4
TOK_EDGES = 5
TOK_CONFIDENCE = 6
TOK_COLON = 7
TOK_ARROW = 8
TOK_EOL = 9

RESERVED_TOKENS: tuple[str, ...] = (
    "<bos>",
    "<eos>",
    "<unk>",
    "[EVIDENCE_SUBGRAPH]",
    "<NODES>",
    "<EDGES>",
    "[CONFIDENCE]",
    ":",
    "->",
    "<eol>",
)


class VocabularyError(ValueError):
    pass


def _is_confidence(word: str) -> bool:
    try:
        value = float(word)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _record(line: str, number: int):
    """One JSON line of a saved vocabulary, its errors named by file line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise VocabularyError(f"line {number}: not JSON ({exc.msg}, column {exc.colno})") from None


@dataclass
class Vocabulary:
    """Bijective token table: the reserved structural ids, then one id per
    word.  An out-of-vocabulary word is an error in :meth:`id_of` and UNK in
    :meth:`input_id`.
    """

    words: tuple[str, ...] = ()
    _ids: dict[str, int] = field(init=False, repr=False)
    # The decoding.GraphIndex of the last graph decoded against this
    # vocabulary, which a back-to-back decode of an equal graph reuses.
    graph_index: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.words = tuple(self.words)
        self._ids = {}
        for i, word in enumerate(self.words, len(RESERVED_TOKENS)):
            if self._ids.setdefault(word, i) != i:
                raise VocabularyError(f"duplicate word {word!r}")

    def __len__(self) -> int:
        return len(RESERVED_TOKENS) + len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def id_of(self, word: str) -> int:
        wid = self._ids.get(word)
        if wid is None:
            raise VocabularyError(f"out-of-vocabulary word {word!r}")
        return wid

    def input_id(self, word: str) -> int:
        """The id ``word`` feeds the model: UNK for an unseen word."""
        return self._ids.get(word, UNK)

    def token(self, token_id: int) -> str:
        if token_id < len(RESERVED_TOKENS):
            return RESERVED_TOKENS[token_id]
        idx = token_id - len(RESERVED_TOKENS)
        if idx >= len(self.words):
            raise VocabularyError(f"unknown token id {token_id}")
        return self.words[idx]

    @functools.cached_property
    def confidence_ids(self) -> tuple[int, ...]:
        """Ids of the words that read as a confidence value (a finite number
        in [0, 1]), ascending."""
        return tuple(
            len(RESERVED_TOKENS) + i
            for i, word in enumerate(self.words)
            if _is_confidence(word)
        )

    def save(self, path: str | Path) -> None:
        """Write the token table as JSON lines (one {token, id} per line).

        The head record names the ``"closed"`` vocabulary kind, the one
        :meth:`id_of` implements.
        """
        lines = [json.dumps({"token": "<mode>", "id": "closed"})]
        for i, tok in enumerate(RESERVED_TOKENS + self.words):
            lines.append(json.dumps({"token": tok, "id": i}))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise VocabularyError("empty vocabulary file")
        head = _record(lines[0], 1)
        if not isinstance(head, dict) or head.get("token") != "<mode>":
            raise VocabularyError("line 1: missing vocabulary mode record")
        # Older files may name the "open" kind; they load the same table.
        if head.get("id") not in ("open", "closed"):
            raise VocabularyError(f"line 1: unknown vocabulary mode {head.get('id')!r}")
        entries = []
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            entry = _record(line, number)
            valid = isinstance(entry, dict) and isinstance(entry.get("token"), str)
            # An id is an int: not a bool, nor a float such as 12.0.
            if not (valid and type(entry.get("id")) is int):
                raise VocabularyError(f"line {number}: not a string token with an int id")
            entries.append(entry)
        entries.sort(key=lambda e: e["id"])
        words = []
        for i, entry in enumerate(entries):
            if entry["id"] != i:
                raise VocabularyError("non-contiguous vocabulary ids")
            if i < len(RESERVED_TOKENS):
                if entry["token"] != RESERVED_TOKENS[i]:
                    raise VocabularyError("reserved token mismatch")
            else:
                words.append(entry["token"])
        return cls(tuple(words))


def build_vocabulary(surface_words: Iterable[str]) -> Vocabulary:
    """Build a vocabulary from surface words in first-seen order."""
    return Vocabulary(tuple(dict.fromkeys(surface_words)))
