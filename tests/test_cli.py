"""Command-line surface: exit codes, artifacts, and a small end-to-end run."""
import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from memalign.checkpoint import load_checkpoint, save_checkpoint
from memalign.cli import main
from memalign.corpus import generate_synthetic_corpus, load_corpus, save_corpus
from memalign.graphs import emit, emit_evidence, parse_evidence, parse_full_graph, verify_subset
from test_checkpoint import malformed_checkpoints, sealed


def test_verify_accepts(tmp_path, capsys):
    inst = generate_synthetic_corpus(1, 3)[0]
    full = tmp_path / "g.txt"
    sub = tmp_path / "s.txt"
    full.write_text(inst.full_graph_text)
    sub.write_text(inst.gold_subgraph_text)
    code = main(["verify", "--full", str(full), "--sub", str(sub)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ACCEPTED"


def test_verify_rejects_with_kind(tmp_path, capsys):
    inst = generate_synthetic_corpus(1, 3)[0]
    full = tmp_path / "g.txt"
    sub = tmp_path / "s.txt"
    full.write_text(inst.full_graph_text)
    sub.write_text(
        "[EVIDENCE_SUBGRAPH]\n<NODES>\nN999: ghost\n<EDGES>\n[CONFIDENCE]\n0.5\n"
    )
    code = main(["verify", "--full", str(full), "--sub", str(sub)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REJECTED" in out and "unknown-node" in out


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["verify", "--full", str(tmp_path / "no.txt"), "--sub", str(tmp_path / "no.txt")])
    assert code == 2


def test_unknown_subcommand_and_flag(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["verify", "--bogus"]) == 1
    assert main([]) == 1


def test_gen_data_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["gen-data", "--n", "5", "--seed", "11", "--out", str(out)]) == 0
    assert (out1 / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()


def test_default_config_prints(capsys):
    assert main(["default-config"]) == 0
    out = capsys.readouterr().out
    assert "[alignment]" in out and "KL weight" in out


def test_malformed_corpus_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code = main(["train-retriever", "--corpus", str(bad), "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.slow
def test_end_to_end_pipeline(tmp_path, capsys):
    # Small but complete: gen-data, train both stages, retrieve, fuse, eval.
    out = tmp_path / "run"
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "[engine]\nd_h = 256\n\n"
        "[alignment]\n"
        "Demonstrations = 40\nNegative sample size = 8\nBatch size = 8\n"
        "Epochs = 4\nHoldout = 8\n\n"
        "[distillation]\n"
        "Epochs = 6\nLearning rate = 0.005\nPer-device batch size = 8\n"
    )
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(40, 42), corpus)

    assert main([
        "train-retriever", "--corpus", str(corpus), "--config", str(cfg),
        "--out", str(out),
    ]) == 0
    assert (out / "retriever.ckpt").exists()
    assert (out / "vocab.jsonl").exists()
    report = json.loads((out / "retriever_report.json").read_text())
    assert len(report["epoch_losses"]) == 6

    for paradigm in ("explicit-sim", "latent-sim"):
        assert main([
            "train-align", "--paradigm", paradigm, "--corpus", str(corpus),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        align_report = json.loads(
            (out / f"align_{paradigm}_report.json").read_text()
        )
        assert align_report["anchor_digest_before"] == align_report["anchor_digest_after"]

    assert main([
        "retrieve", "--corpus", str(corpus), "--config", str(cfg),
        "--out", str(out),
    ]) == 0
    lines = (out / "retrieved.jsonl").read_text().splitlines()
    assert len(lines) == 40

    assert main([
        "fuse-retrieve", "--corpus", str(corpus), "--config", str(cfg),
        "--out", str(out),
    ]) == 0
    assert len((out / "fused_retrieved.jsonl").read_text().splitlines()) == 40

    assert main([
        "eval", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out),
    ]) == 0
    eval_report = json.loads((out / "eval_report.json").read_text())
    assert sorted(eval_report) == [
        "em", "f1", "mem_length", "n", "rouge1", "unique_ratio", "utilization",
    ]
    out_text = capsys.readouterr().out
    assert "Unique Ratio" in out_text and "%" in out_text


@pytest.mark.parametrize(
    "stage, body",
    [
        ("train-retriever", "[distillation]\nEpochs = 0\n"),
        ("train-retriever", "[distillation]\nPer-device batch size = 0\n"),
        ("train-retriever", "[distillation]\nLearning rate = 0\n"),
        ("train-retriever", "[distillation]\nKL weight = -1\n"),
        ("train-retriever", "[distillation]\nKL temperature = inf\n"),
        ("train-retriever", "[distillation]\nKL weight = inf\n"),
        # Settings that the six-instance corpus accepts, but for the epochs.
        (
            "train-align",
            "[alignment]\nEpochs = 0\nBatch size = 2\nNegative sample size = 2\nHoldout = 0\n",
        ),
        (
            "train-align",
            "[alignment]\nWarmup ratio = 2\nBatch size = 2\nNegative sample size = 2\n"
            "Holdout = 0\n",
        ),
        *(
            (
                "train-align",
                f"[alignment]\n{setting}\nBatch size = 2\nNegative sample size = 2\n"
                "Holdout = 0\n",
            )
            for setting in (
                "Contrastive (InfoNCE) temperature = nan",
                "MSE loss (optional) = nan",
                "Learning rate = inf",
            )
        ),
    ],
)
def test_settings_that_cannot_train_are_refused_before_any_write(tmp_path, stage, body):
    assert_refused_before_any_write(*run_training(tmp_path, stage, body))


# Finite settings whose training overflows.  Each used to exit 0, write a
# non-finite checkpoint and a report holding bare NaN, which is not JSON.
DIVERGING = [
    ("train-align", "Learning rate = 1e200"),
    ("train-align", "Contrastive (InfoNCE) temperature = 1e-320"),
    ("train-align", "MSE loss (optional) = 1e308"),
    ("train-retriever", "KL weight = 1e308"),
    ("train-retriever", "Learning rate = 1e200"),
    ("train-retriever", "KL temperature = 1e-320"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stage, setting", DIVERGING)
def test_diverged_training_is_refused_before_any_write(tmp_path, stage, setting):
    if stage == "train-align":
        body = (
            f"[alignment]\n{setting}\nNegative sample size = 8\nBatch size = 8\n"
            "Epochs = 2\nHoldout = 8\n"
        )
    else:
        body = f"[distillation]\n{setting}\n"
    code, err, out = run_training(tmp_path, stage, body, n_instances=40)
    assert_refused_before_any_write(code, err, out)
    assert err.startswith("error: training diverged in epoch 1")


def test_a_one_instance_holdout_becomes_none(tmp_path):
    """Five demonstrations and a batch of four leave one spare instance,
    which has no other to compare with: the holdout is 0, so accuracy and
    gap are measured over the whole pool of five."""
    body = "[alignment]\nBatch size = 4\nNegative sample size = 2\n"
    code, err, out = run_training(tmp_path, "train-align", body, n_instances=5)
    assert code == 0, err
    report = json.loads((out / "align_explicit-sim_report.json").read_text())
    assert report["holdout_size"] == 5
    assert np.isfinite(report["cosine_gap"])


def run_training(directory: Path, stage: str, body: str, n_instances: int = 6):
    """``stage`` on a seeded corpus of ``n_instances`` under config
    ``body``: its exit code, its stderr and its ``--out`` directory."""
    corpus = directory / "c.jsonl"
    save_corpus(generate_synthetic_corpus(n_instances, 1), corpus)
    config = directory / "engine.cfg"
    config.write_text(body)
    out = directory / "out"
    argv = [stage, "--corpus", str(corpus), "--config", str(config), "--out", str(out)]
    if stage == "train-align":
        argv += ["--paradigm", "explicit-sim"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out


def assert_refused_before_any_write(code: int, err: str, out: Path) -> None:
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_train_align_rejects_anchor(tmp_path):
    corpus = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic_corpus(2, 1), corpus)
    code = main([
        "train-align", "--paradigm", "anchor-graph", "--corpus", str(corpus),
        "--out", str(tmp_path),
    ])
    assert code == 1


def test_training_coverage_levels_grow_the_reported_sets(tmp_path, capsys):
    """``--coverage L1,L2`` adds one retriever example per instance and
    level, and one alignment demonstration per instance, level and side,
    and the reports count them: with 6 instances, 6 → 18 examples, and a
    pool of 6 → 30 demonstrations whose holdout (at most the pool less
    one batch of 4) grows from 2 to 26.  A level outside [0, 1] or no
    number at all exits 1, with a message that names it, before any
    checkpoint is written."""
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "[alignment]\nBatch size = 4\nEpochs = 1\nNegative sample size = 2\nHoldout = 100\n\n"
        "[distillation]\nEpochs = 1\nPer-device batch size = 6\n"
    )
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(6, 42), corpus)
    stages = (["train-retriever"], ["train-align", "--paradigm", "explicit-sim"])
    counts = []
    for coverage in ([], ["--coverage", "0.5,1"]):
        out = tmp_path / f"out{len(coverage)}"
        for stage in stages:
            assert main([*stage, "--corpus", str(corpus), "--config", str(cfg),
                         "--out", str(out), *coverage]) == 0
        retriever = json.loads((out / "retriever_report.json").read_text())
        align = json.loads((out / "align_explicit-sim_report.json").read_text())
        counts.append((retriever["n_examples"], align["holdout_size"]))
    assert counts == [(6, 2), (18, 26)]
    out = tmp_path / "refused"
    refusals = {
        "1.5": "coverage level 1.5 outside [0, 1]",
        "nan": "coverage level nan outside [0, 1]",
        "x": "bad coverage list 'x'",
    }
    for levels, message in refusals.items():
        for stage in stages:
            capsys.readouterr()
            assert main([*stage, "--corpus", str(corpus), "--out", str(out),
                         "--coverage", levels]) == 1
            assert f"argument --coverage: {message}" in capsys.readouterr().err
            assert not out.exists()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Checkpoints of a one-epoch run over six instances, for the serving
    stages."""
    out = tmp_path_factory.mktemp("served")
    cfg = out / "engine.cfg"
    cfg.write_text(
        "[alignment]\nBatch size = 4\nEpochs = 1\nNegative sample size = 2\nHoldout = 0\n\n"
        "[distillation]\nEpochs = 1\nPer-device batch size = 6\n"
    )
    corpus = out / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(6, 42), corpus)
    common = ["--corpus", str(corpus), "--config", str(cfg), "--out", str(out)]
    assert main(["train-retriever", *common]) == 0
    for paradigm in ("explicit-sim", "latent-sim"):
        assert main(["train-align", "--paradigm", paradigm, *common]) == 0
    return ["--corpus", str(corpus), "--config", str(cfg), "--checkpoints", str(out)]


@pytest.mark.parametrize("level", ["-0.5", "1.5", "nan"])
def test_coverage_level_outside_unit_interval_is_rejected(served, tmp_path, capsys, level):
    stages = {
        "retrieved.jsonl": ["retrieve", "--paradigm", "explicit-sim", "--side", "0"],
        "fused_retrieved.jsonl": ["fuse-retrieve"],
    }
    for name, stage in stages.items():
        argv = [*stage, *served, "--out", str(tmp_path)]
        assert main([*argv, "--coverage-level", "0.5"]) == 0
        (tmp_path / name).unlink()
        capsys.readouterr()
        assert main([*argv, "--coverage-level", level]) == 1
        assert "outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("level", ["-3", "0.5"])
def test_coverage_level_without_side_is_refused(served, tmp_path, capsys, level):
    argv = ["retrieve", *served, "--out", str(tmp_path)]
    assert main([*argv, "--coverage-level", level]) == 1
    assert "--coverage-level needs --side" in capsys.readouterr().err
    assert not (tmp_path / "retrieved.jsonl").exists()
    assert main(argv) == 0  # without the flag the anchor view sees every segment
    assert len((tmp_path / "retrieved.jsonl").read_text().splitlines()) == 6


def test_decode_error_is_a_validation_error(served, tmp_path, capsys):
    # A vocabulary whose confidence words were renamed, ids still contiguous.
    checkpoints = Path(served[served.index("--checkpoints") + 1])
    for name in ("retriever.ckpt", "align_explicit-sim.ckpt", "align_latent-sim.ckpt"):
        shutil.copy(checkpoints / name, tmp_path / name)
    lines = (checkpoints / "vocab.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    renamed = 0
    for entry in entries[1:]:
        try:
            float(entry["token"])
        except ValueError:
            continue
        entry["token"] = f"conf-{entry['token']}"
        renamed += 1
    assert renamed
    (tmp_path / "vocab.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--checkpoints") + 1] = str(tmp_path)
    capsys.readouterr()
    assert main(["retrieve", *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: vocabulary has no confidence value token\n"
    assert not (tmp_path / "retrieved.jsonl").exists()


def test_retriever_and_vocabulary_of_different_sizes_are_refused(served, tmp_path, capsys):
    # The served vocabulary with one more word than the retriever has rows.
    checkpoints = Path(served[served.index("--checkpoints") + 1])
    for name in ("retriever.ckpt", "align_explicit-sim.ckpt", "align_latent-sim.ckpt"):
        shutil.copy(checkpoints / name, tmp_path / name)
    lines = (checkpoints / "vocab.jsonl").read_text().splitlines()
    size = len(lines) - 1  # the first line is the mode record
    lines.append(json.dumps({"token": "extra-word", "id": size}))
    (tmp_path / "vocab.jsonl").write_text("\n".join(lines) + "\n")
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--checkpoints") + 1] = str(tmp_path)
    capsys.readouterr()
    assert main(["retrieve", *argv]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: retriever has {size} token rows but the vocabulary has {size + 1} tokens\n"
    )
    assert not (tmp_path / "retrieved.jsonl").exists()


def test_malformed_checkpoint_is_a_validation_error(served, tmp_path, capsys):
    checkpoints = Path(served[served.index("--checkpoints") + 1])
    for name in ("vocab.jsonl", "align_explicit-sim.ckpt", "align_latent-sim.ckpt"):
        shutil.copy(checkpoints / name, tmp_path / name)
    data, message = malformed_checkpoints()["rank past the blob"]
    (tmp_path / "retriever.ckpt").write_bytes(sealed(data))
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--checkpoints") + 1] = str(tmp_path)
    capsys.readouterr()
    assert main(["retrieve", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "retrieved.jsonl").exists()


def test_non_finite_retriever_checkpoint_is_a_validation_error(served, tmp_path, capsys):
    checkpoints = Path(served[served.index("--checkpoints") + 1])
    for name in ("vocab.jsonl", "align_explicit-sim.ckpt", "align_latent-sim.ckpt"):
        shutil.copy(checkpoints / name, tmp_path / name)
    sections = load_checkpoint(checkpoints / "retriever.ckpt")
    sections["retriever/uz"][0, 0] = np.nan
    save_checkpoint(sections, tmp_path / "retriever.ckpt")  # with a valid checksum
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--checkpoints") + 1] = str(tmp_path)
    capsys.readouterr()
    assert main(["retrieve", *argv]) == 1
    assert capsys.readouterr().err == "error: non-finite retriever parameters\n"
    assert not (tmp_path / "retrieved.jsonl").exists()


def test_eval_on_an_empty_corpus_is_a_validation_error(served, tmp_path, capsys):
    # RuntimeWarnings fail the suite, so an empty mean would escape main.
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--corpus") + 1] = str(empty)
    capsys.readouterr()
    assert main(["eval", *argv]) == 1
    assert capsys.readouterr().err == "error: evaluation requires at least one instance\n"
    assert not (tmp_path / "eval_report.json").exists()


def test_memory_with_unseen_words_and_node_ids_is_served(served, tmp_path):
    # One instance's full graph gains a node and an edge the training
    # corpus never saw, so the closed vocabulary lacks N77 and violet.
    corpus_path = Path(served[served.index("--corpus") + 1])
    records = [json.loads(line) for line in corpus_path.read_text().splitlines()]
    text = records[2]["full_graph_text"]
    records[2]["full_graph_text"] = text.replace(
        "<EDGES>\n", "N77: violet beacon\n<EDGES>\nN77 -> N1: violet\n"
    )
    corpus = tmp_path / "unseen.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = [*served, "--out", str(tmp_path)]
    argv[argv.index("--corpus") + 1] = str(corpus)
    assert main(["retrieve", *argv]) == 0
    instances = {inst.id: inst for inst in load_corpus(corpus)}
    lines = (tmp_path / "retrieved.jsonl").read_text().splitlines()
    assert len(lines) == len(instances)
    for line in lines:
        record = json.loads(line)
        full = parse_full_graph(instances[record["id"]].full_graph_text)
        assert verify_subset(parse_evidence(record["evidence"]), full).accepted
