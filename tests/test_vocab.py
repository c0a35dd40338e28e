"""Vocabulary table and reserved token ids."""
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from memalign.vocab import (
    BOS,
    EOS,
    RESERVED_TOKENS,
    TOK_ARROW,
    TOK_COLON,
    TOK_CONFIDENCE,
    TOK_EDGES,
    TOK_EOL,
    TOK_HEADER,
    TOK_NODES,
    UNK,
    Vocabulary,
    VocabularyError,
    build_vocabulary,
)
from util import mutated_bytes


def test_reserved_ids_are_stable():
    assert (BOS, EOS, UNK) == (0, 1, 2)
    assert TOK_HEADER == 3 and TOK_NODES == 4 and TOK_EDGES == 5
    assert TOK_CONFIDENCE == 6 and TOK_COLON == 7 and TOK_ARROW == 8
    assert TOK_EOL == 9
    assert len(RESERVED_TOKENS) == 10
    assert RESERVED_TOKENS[TOK_HEADER] == "[EVIDENCE_SUBGRAPH]"


def test_word_ids_follow_reserved_block():
    vocab = Vocabulary(("harbor", "mill"))
    assert vocab.id_of("harbor") == 10
    assert vocab.id_of("mill") == 11
    assert vocab.token(10) == "harbor"
    assert len(vocab) == 12


def test_oov_is_an_error_in_id_of_and_unk_as_input():
    vocab = Vocabulary(("harbor",))
    with pytest.raises(VocabularyError):
        vocab.id_of("mill")
    assert vocab.input_id("mill") == UNK
    assert vocab.input_id("harbor") == vocab.id_of("harbor") == 10


def test_duplicate_words_rejected_and_reserved_spellings_are_words():
    with pytest.raises(VocabularyError, match="duplicate word 'x'"):
        Vocabulary(("x", "x"))
    vocab = Vocabulary(("->", "<eol>"))
    assert vocab.id_of("->") == 10 and vocab.token(10) == "->"
    assert vocab.id_of("<eol>") == 11 and vocab.token(TOK_EOL) == "<eol>"
    with pytest.raises(VocabularyError):
        vocab.id_of(":")


def test_unknown_id_rejected():
    # Negative ids must not index the reserved block or the words from the end.
    for token_id in (99, 11, -1, -3, -10, -11, -12):
        with pytest.raises(VocabularyError, match="unknown token id"):
            Vocabulary(("a",)).token(token_id)


def test_build_vocabulary_first_seen_order():
    vocab = build_vocabulary(["b", "a", "b", "c", "a"])
    assert vocab.words == ("b", "a", "c")


def test_build_vocabulary_keeps_reserved_surface_words():
    vocab = build_vocabulary(["->", "x", ":", "x"])
    assert vocab.words == ("->", "x", ":")
    assert len(vocab) == 13


def test_save_load_round_trip(tmp_path):
    vocab = build_vocabulary(["harbor", ":", "mill", "0.9"])
    path = tmp_path / "vocab.jsonl"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"token": "<mode>", "id": "closed"}
    assert json.loads(lines[12]) == {"token": ":", "id": 11}
    loaded = Vocabulary.load(path)
    assert loaded.words == vocab.words
    assert loaded.id_of("0.9") == vocab.id_of("0.9")


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_load_accepts_only_the_closed_vocabulary_head(tmp_path, kind):
    path = tmp_path / "vocab.jsonl"
    build_vocabulary(["harbor"]).save(path)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"token": "<mode>", "id": kind})
    path.write_text("\n".join(lines) + "\n")
    if kind == "open":
        with pytest.raises(VocabularyError, match="^line 1: unknown vocabulary mode 'open'$"):
            Vocabulary.load(path)
        return
    vocab = Vocabulary.load(path)
    assert vocab.words == ("harbor",)
    with pytest.raises(VocabularyError):
        vocab.id_of("mill")


def test_load_rejects_missing_mode_record(tmp_path):
    path = tmp_path / "vocab.jsonl"
    path.write_text('{"token": "<bos>", "id": 0}\n')
    with pytest.raises(VocabularyError):
        Vocabulary.load(path)


MALFORMED_LINES = {
    "head not an object": (0, '["<mode>", "closed"]'),
    "record not an object": (3, '"<unk>"'),
    "missing token": (3, '{"id": 2}'),
    "missing id": (3, '{"token": "<unk>"}'),
    "string id": (3, '{"token": "<unk>", "id": "2"}'),
    "float id": (13, '{"token": "0.9", "id": 12.0}'),
    "bool id": (2, '{"token": "<eos>", "id": true}'),
    "head not JSON": (0, '{"token": "<mode>"'),
    "unknown head kind": (0, '{"token": "<mode>", "id": "ajar"}'),
    "record not JSON": (5, '{"token": "<x>", "id": 4'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_load_names_the_line_of_a_malformed_record(tmp_path, case):
    path = tmp_path / "vocab.jsonl"
    build_vocabulary(["harbor", "mill", "0.9"]).save(path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[13]) == {"token": "0.9", "id": 12}
    assert Vocabulary.load(path).id_of("0.9") == 12
    index, replacement = MALFORMED_LINES[case]
    lines[index] = replacement
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(VocabularyError, match=f"^line {index + 1}: "):
        Vocabulary.load(path)



@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_names_the_line_of_bytes_that_are_not_utf8(tmp_path, newline):
    path = tmp_path / "vocab.jsonl"
    build_vocabulary(["harbor", "mill"]).save(path)
    lines = path.read_bytes().splitlines()
    assert lines[11] == b'{"token": "harbor", "id": 10}'
    lines[11] = lines[11].replace(b"harbor", b"harb\xffr")
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(VocabularyError, match=r"^line 12: not UTF-8 text \(invalid start byte\)$"):
        Vocabulary.load(path)


def test_confidence_ids_are_the_unit_interval_numbers():
    vocab = build_vocabulary(["N1", "0.5", "amber", "1.0", "1.5", "-0.1", "nan", "inf", "0"])
    assert vocab.confidence_ids == tuple(vocab.id_of(w) for w in ("0.5", "1.0", "0"))
    assert vocab.confidence_ids is vocab.confidence_ids  # computed once


def _saved(vocab: Vocabulary) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "vocab.jsonl")
        vocab.save(path)
        return path.read_bytes()


# A small vocabulary file whose bytes the property below mutates.
SMALL_VOCAB = _saved(build_vocabulary(["harbor", ":", "mill", "0.9", "->"]))


@given(mutated_bytes(SMALL_VOCAB))
@settings(max_examples=300, deadline=None)
def test_a_mutated_vocabulary_loads_or_is_refused_with_a_vocabulary_error(data):
    """Any other exception propagates and fails the test."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "vocab.jsonl")
        path.write_bytes(data)
        try:
            Vocabulary.load(path)
        except VocabularyError:
            pass
