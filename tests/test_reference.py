"""Training and retrieval outputs against a committed reference.

``data/reference_small.json`` holds the outputs of the criterion-10 CLI run
recorded before the training loops were batched.  Refactors of the
training arithmetic may move losses in their last bits, never more than
the fixture's stated tolerances.  ``data/reference_retrieve.json`` holds
the sha256 of the same run's retrieval outputs, recorded before decoding
was batched; they must stay byte for byte.
"""
import hashlib
import json
from pathlib import Path

import pytest

from memalign.cli import main

pytestmark = pytest.mark.reference

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "reference_small.json").read_text())
RETRIEVE_REFERENCE = json.loads((DATA / "reference_retrieve.json").read_text())


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    cfg = out / "engine.cfg"
    cfg.write_text(REFERENCE["config"])
    corpus = out / "corpus.jsonl"
    common = ["--config", str(cfg), "--out", str(out)]
    stages = (
        ["gen-data", "--n", str(REFERENCE["gen_data_n"])],
        ["train-retriever", "--corpus", str(corpus)],
        ["train-align", "--paradigm", "explicit-sim", "--corpus", str(corpus)],
        ["train-align", "--paradigm", "latent-sim", "--corpus", str(corpus)],
        ["retrieve", "--corpus", str(corpus)],
        ["fuse-retrieve", "--corpus", str(corpus), "--coverage-level", "0.5"],
        ["eval", "--corpus", str(corpus)],
    )
    for argv in stages:
        assert main(argv + common) == 0
    assert main([
        "retrieve", "--corpus", str(corpus), "--paradigm", "explicit-sim",
        "--side", "0", "--coverage-level", "0.5", "--config", str(cfg),
        "--checkpoints", str(out), "--out", str(out / "single"),
    ]) == 0
    return out


def _report(out, name):
    return json.loads((out / name).read_text())


def test_retriever_epoch_losses_match_reference(run):
    losses = _report(run, "retriever_report.json")["epoch_losses"]
    rel = REFERENCE["tolerance"]["losses_rel"]
    assert losses == pytest.approx(REFERENCE["retriever_epoch_losses"], rel=rel, abs=0)


def test_alignment_matches_reference(run):
    report = _report(run, "align_explicit-sim_report.json")
    rel = REFERENCE["tolerance"]["losses_rel"]
    assert report["epoch_losses"] == pytest.approx(
        REFERENCE["align_explicit_sim_epoch_losses"], rel=rel, abs=0
    )
    assert report["holdout_accuracy"] == REFERENCE["align_explicit_sim_holdout_accuracy"]
    assert report["holdout_size"] == REFERENCE["align_explicit_sim_holdout_size"]
    assert report["cosine_gap"] == pytest.approx(
        REFERENCE["align_explicit_sim_cosine_gap"],
        abs=REFERENCE["tolerance"]["cosine_gap_abs"],
    )
    assert report["anchor_digest_before"] == report["anchor_digest_after"]


def test_eval_report_matches_reference(run):
    assert _report(run, "eval_report.json") == REFERENCE["eval"]


def test_retrieval_outputs_match_reference(run):
    digests = {
        name: hashlib.sha256((run / name).read_bytes()).hexdigest()
        for name in RETRIEVE_REFERENCE["digests"]
    }
    assert digests == RETRIEVE_REFERENCE["digests"]
