"""Retriever checkpoint bytes against a committed reference.

``data/reference_retriever.ckpt`` holds a tiny retriever trained by
:func:`reference_recipe`, recorded before the gate parameters moved to
stacked storage.  The same recipe must write the same bytes, and loading
then saving the committed file must give it back unchanged.

Record the file again, after a change that is meant to move it, with
``PYTHONPATH=src python tests/test_reference_checkpoint.py``.
"""
from pathlib import Path

import numpy as np
import pytest

from memalign.checkpoint import load_checkpoint, save_checkpoint
from memalign.graphs import parse_evidence, parse_full_graph
from memalign.pipeline import retriever_from_sections, retriever_sections
from memalign.retriever import (
    DistillConfig,
    QueryEmbedder,
    RetrieverExample,
    init_retriever,
    train_retriever,
)
from memalign.vocab import build_vocabulary

pytestmark = pytest.mark.reference

REFERENCE = Path(__file__).parent / "data" / "reference_retriever.ckpt"

FULL = (
    "[FULL_GRAPH]\n<NODES>\nN1: amber harbor\nN2: quiet mill\n"
    "<EDGES>\nN1 -> N2: feeds\n"
)
GOLDS = (
    ("where is the harbor", "N1: amber harbor\n<EDGES>\n"),
    ("what feeds the mill", "N1: amber harbor\nN2: quiet mill\n<EDGES>\nN1 -> N2: feeds\n"),
)


def reference_recipe(path):
    """Train an 18-token, d_m = 4 retriever for two epochs and save it."""
    full = parse_full_graph(FULL)
    examples = [
        RetrieverExample(
            f"r{i}",
            query,
            full,
            parse_evidence(f"[EVIDENCE_SUBGRAPH]\n<NODES>\n{body}[CONFIDENCE]\n0.9\n"),
            np.array([0.5, -0.25]) * (i + 1),
        )
        for i, (query, body) in enumerate(GOLDS)
    ]
    vocab = build_vocabulary(["N1", "N2", "amber", "harbor", "quiet", "mill", "feeds", "0.9"])
    model = init_retriever(len(vocab), 4, 3, 2, seed=5)
    config = DistillConfig(epochs=2, learning_rate=5e-2, batch_size=2, seed=7)
    trained, _ = train_retriever(model, examples, vocab, QueryEmbedder(3, 1), config)
    save_checkpoint(retriever_sections(trained), path)


def test_recipe_writes_the_reference_bytes(tmp_path):
    reference_recipe(tmp_path / "retriever.ckpt")
    assert (tmp_path / "retriever.ckpt").read_bytes() == REFERENCE.read_bytes()


def test_reference_round_trips_byte_for_byte(tmp_path):
    model = retriever_from_sections(load_checkpoint(REFERENCE))
    assert model.vocab_size == 18 and model.d_m == 4
    save_checkpoint(retriever_sections(model), tmp_path / "retriever.ckpt")
    assert (tmp_path / "retriever.ckpt").read_bytes() == REFERENCE.read_bytes()


if __name__ == "__main__":
    reference_recipe(REFERENCE)
