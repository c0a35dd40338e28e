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
from typing import Iterable, Iterator

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


def decode_text(raw: bytes, error: type[ValueError]) -> str:
    """``raw`` as ``Path.read_text(encoding="utf-8")`` reads it: UTF-8, with
    ``\\r\\n`` and a lone ``\\r`` read as ``\\n``.  A byte that is not UTF-8 is
    an ``error`` naming its line.  Corpus, vocabulary and config files are
    all read this way."""
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        number = decode_text(raw[: exc.start], error).count("\n") + 1
        raise error(f"line {number}: not UTF-8 text ({exc.reason})") from None


def json_lines(text: str, error: type[ValueError]) -> Iterator[tuple[int, object]]:
    """The line number and JSON value of each line of ``text`` that is not
    blank, for JSON-lines files such as corpora and vocabularies.  Lines end
    at ``\\n`` only: JSON strings may hold U+2028, U+2029 and U+0085 raw, and
    ``str.splitlines()`` would break lines at them."""
    for number, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"line {number}: malformed JSON ({exc.msg})") from None
            yield number, value


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
        if not 0 <= token_id < len(self):
            raise VocabularyError(f"unknown token id {token_id}")
        if token_id < len(RESERVED_TOKENS):
            return RESERVED_TOKENS[token_id]
        return self.words[token_id - len(RESERVED_TOKENS)]

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
        records = json_lines(decode_text(Path(path).read_bytes(), VocabularyError), VocabularyError)
        number, head = next(records, (0, None))
        if not number:
            raise VocabularyError("empty vocabulary file")
        if not isinstance(head, dict) or head.get("token") != "<mode>":
            raise VocabularyError(f"line {number}: missing vocabulary mode record")
        if head.get("id") != "closed":
            raise VocabularyError(f"line {number}: unknown vocabulary mode {head.get('id')!r}")
        entries = []
        for number, entry in records:
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
