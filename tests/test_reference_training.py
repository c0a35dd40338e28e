"""Float64 training results against a committed reference.

``data/reference_training.npz`` holds the float64 parameters of two
training runs, recorded after the retriever's step-buffered backward pass
and before the alignment run was sized from its pool:

- ``retriever/<name>``: the retriever that
  :func:`test_reference_checkpoint.reference_recipe` trains, before its
  checkpoint rounds it to float32;
- ``align/<name>`` and ``align_holdout_accuracy``: an alignment run of
  ``explicit-sim`` whose holdout accuracy (30 of 40) is far above chance
  (1 in 40), so a broken aligner shows.

Every parameter and the holdout accuracy must match bit for bit
(``ATOL`` is 0): a change that reorders the training arithmetic records
the file again and says why.

Record the file again, after a change that is meant to move it, with
``PYTHONPATH=src python tests/test_reference_training.py``.
"""
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import test_reference_checkpoint
from memalign.config import EngineConfig
from memalign.contrastive import AlignConfig
from memalign.corpus import generate_synthetic_corpus
from memalign.pipeline import build_runtime, train_alignment_pipeline
from memalign.retriever import train_retriever

pytestmark = pytest.mark.reference

REFERENCE = Path(__file__).parent / "data" / "reference_training.npz"
# Largest absolute difference allowed in any parameter entry.
ATOL = 0.0
ALIGN_CONFIG = AlignConfig(
    n_demos=200,
    negatives=32,
    batch_size=16,
    epochs=40,
    learning_rate=1e-2,
    holdout=40,
    seed=3,
)


def recipe_retriever():
    """The retriever of ``reference_recipe``, in float64."""
    trained = []

    def train(*args):
        model, report = train_retriever(*args)
        trained.append(model)
        return model, report

    with mock.patch.object(test_reference_checkpoint, "train_retriever", train):
        with tempfile.TemporaryDirectory() as tmp:
            test_reference_checkpoint.reference_recipe(Path(tmp) / "retriever.ckpt")
    return trained[0]


def alignment_run():
    corpus = generate_synthetic_corpus(ALIGN_CONFIG.n_demos, 5)
    return train_alignment_pipeline(
        build_runtime(EngineConfig(d_h=128)), "explicit-sim", corpus, ALIGN_CONFIG
    )


def record() -> dict[str, np.ndarray]:
    arrays = {f"retriever/{k}": v for k, v in recipe_retriever().parameters().items()}
    module, report = alignment_run()
    arrays.update({f"align/{k}": v for k, v in module.parameters().items()})
    arrays["align_holdout_accuracy"] = np.array(report.holdout_accuracy)
    return arrays


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as data:
        return dict(data)


def _assert_close(params, reference, prefix):
    assert sorted(params) == sorted(
        k.split("/", 1)[1] for k in reference if k.startswith(prefix + "/")
    )
    for name, value in params.items():
        expected = reference[f"{prefix}/{name}"]
        assert value.dtype == expected.dtype == np.float64, name
        np.testing.assert_allclose(value, expected, rtol=0, atol=ATOL, err_msg=name)


def test_retriever_matches_reference(reference):
    _assert_close(recipe_retriever().parameters(), reference, "retriever")


def test_alignment_matches_reference(reference):
    module, report = alignment_run()
    _assert_close(module.parameters(), reference, "align")
    assert report.holdout_accuracy == reference["align_holdout_accuracy"]
    assert report.holdout_accuracy >= 0.5


if __name__ == "__main__":
    np.savez(REFERENCE, **record())
