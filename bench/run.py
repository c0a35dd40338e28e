"""The memalign benchmark: one command for the ``train``, ``serve`` and
``long-memory`` workloads.

    python3 bench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; memalign is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.  ``--trace
1`` runs a fixed amount of work twice, untraced and then with every layer's
public functions wrapped (see ``bench/tracer.py``), and reports per-layer call
counts, self-time shares, exact counts and the tracing overhead.  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a report with the environment,
every named metric, per-function self seconds and the sha256 of every artifact
goes to ``.bench_out/``, and the traced run also writes its spans there.

``--seconds`` is how long ``long-memory`` issues requests and ``serve`` issues
single requests; ``serve`` then runs CLI passes for half as long again, and
``train`` times at least two passes of its three CLI stages, however long they
take.

End-to-end metrics, reported by every workload.  Every time is scaled to a
reference host speed by ``bench/hostclock.py``, which times a fixed reference
kernel every 40 ms while the workload runs: this host's speed drifts by tens
of percent, and unscaled the same code measured ±20-45% apart from run to run.
The unscaled values are printed as ``raw.<metric>``, with the host speed.

* ``setup_s``: inputs on disk to ready to serve (median of several set-ups):
  ``build_runtime`` and loading the corpus, checkpoints, vocabulary and
  request pool the workload uses.  Fixture training is excluded.
* ``peak_rss_mb``: peak resident memory of this process.
* ``pass_s``: median time of one pass over the workload's input set:
  ``train``, the three training CLI stages; ``serve``, the ``retrieve``,
  ``fuse-retrieve`` and ``eval`` CLI stages over the corpus; ``long-memory``,
  one round of requests, a graph of each of the five sizes.
* ``throughput_per_s``: units of work per second of busy time.  ``train``:
  example-epochs (retriever examples and alignment demonstrations) per second
  of CLI stage time; ``serve``: single requests per second of request time;
  ``long-memory``: decoded tokens per second of request time.
* ``latency_p50_ms`` and ``latency_tail_ms``: ``train``, a ``train-align``
  call (two of a pass's three stage calls, so the median one) and a
  ``train-retriever`` call (the slowest), each the mean over the run's calls;
  ``serve``, the median and p90 request; ``long-memory``, the median and p90
  over requests of the time per decoded token, one decode step.  The seeded
  retriever's output length varies among graphs of one size with a CV of
  about 0.23, which per-request latency would carry into the gate; the
  per-request p50 and p90 are printed as ``request_p50_ms`` and
  ``request_p90_ms``.  On ``serve`` the p99 (printed as ``request_p99_ms``)
  swings with every stall of a shared host, by more than any bound a
  regression gate could use.

The metrics the workloads were designed around (``retriever_examples_per_s``,
``request_p99_ms``, ``batch_instances_per_s`` and so on) are printed by name,
with units, above the JSON line.

``python3 bench/selftest.py`` checks the harness itself at tiny sizes.
"""
from __future__ import annotations

import os

# Pinned before NumPy is imported: a multi-threaded BLAS on a small machine
# made one forward pass ten times slower.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

# Wrapped in the traced run, with a span per call: (module, qualified name).
TIMED = (
    ("retriever", "sequence_logits"),
    ("retriever", "sequence_backward"),
    ("retriever", "distill_loss"),
    ("retriever", "teacher_distribution"),
    ("retriever", "RetrieverModel.cell"),
    ("contrastive", "infonce_loss"),
    ("contrastive", "sample_negatives"),
    ("unified", "align_forward"),
    ("unified", "align_gradients"),
    ("unified", "ParadigmRegistry.encode_state"),
    ("optim", "AdamW.step"),
    ("decoding", "generate_subgraph"),
    ("decoding", "ConstraintEngine.__init__"),
    ("decoding", "ConstraintEngine.allowed_tokens"),
    ("decoding", "ConstraintEngine.advance"),
    ("fusion", "fuse_states"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("seeding", "fnv1a64"),
    ("graphs", "parse_full_graph"),
    ("graphs", "verify_subset"),
    ("tokenization", "delinearize"),
    ("tokenization", "linearize_evidence"),
    ("corpus", "load_corpus"),
    ("vocab", "Vocabulary.load"),
    ("metrics", "token_f1"),
    ("metrics", "rouge1"),
)
# Called hundreds of thousands of times per alignment stage: counted only.
COUNTED = (("contrastive", "cosine_sim"),)
CLI_STAGES = ("train-retriever", "train-align", "retrieve", "fuse-retrieve", "eval")


def _count_mask_width(tracer, args, kwargs, result):
    # advance() re-checks its token with allowed_tokens(); only the decode
    # loop's own call is one step's mask.
    if tracer.parent_name() != "decoding.ConstraintEngine.advance":
        tracer.counts["mask_steps"] += 1
        tracer.counts["mask_width_sum"] += len(result)


def _count_saved(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["checkpoint.bytes_written"] += Path(path).stat().st_size


def _count_loaded(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["checkpoint.bytes_read"] += Path(path).stat().st_size


def _count_hashed(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.counts["seeding.fnv1a64.bytes_hashed"] += len(data)


HOOKS = {
    "decoding.ConstraintEngine.allowed_tokens": _count_mask_width,
    "checkpoint.save_checkpoint": _count_saved,
    "checkpoint.load_checkpoint": _count_loaded,
    "seeding.fnv1a64": _count_hashed,
}


def make_tracer():
    from tracer import Tracer

    return Tracer(TIMED, COUNTED, HOOKS, callers=("workloads",))


def per_layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``traced_s`` seconds."""
    from tracer import target_name

    metrics = {}
    timed = [target_name(*t) for t in TIMED]
    for name in timed:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_pct"] = (100.0 * tracer.self_s[name] / traced_s, "%")
    for target in COUNTED:
        name = target_name(*target)
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for stage in CLI_STAGES:
        metrics[f"cli.{stage}.wall_pct"] = (
            100.0 * tracer.total_s[f"cli.{stage}"] / traced_s, "%")
    decodes = tracer.calls["decoding.generate_subgraph"]
    steps = tracer.counts["mask_steps"]
    metrics["decoding.tokens_per_request"] = (
        tracer.calls["decoding.ConstraintEngine.advance"] / decodes if decodes else 0.0,
        "count")
    metrics["decoding.mask_width_mean"] = (
        tracer.counts["mask_width_sum"] / steps if steps else 0.0, "count")
    for name in ("checkpoint.bytes_written", "checkpoint.bytes_read",
                 "seeding.fnv1a64.bytes_hashed"):
        metrics[name] = (int(tracer.counts[name]), "B")
    covered = sum(tracer.self_s[name] for name in timed)
    metrics["trace.uncovered_pct"] = (100.0 * (traced_s - covered) / traced_s, "%")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return metrics


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def top_self_times(tracer, limit: int = 4) -> dict:
    """Per kind of root span (one request, one CLI stage, set-up): the wrapped
    functions with the most self time inside it."""
    root_names = {s[0]: s[3] for s in tracer.spans if s[1] is None}
    table: dict = {}
    for span_id, parent, root, name, start, end, own in tracer.spans:
        if parent is not None:
            by_name = table.setdefault(root_names[root], {})
            by_name[name] = by_name.get(name, 0.0) + own
    return {
        root: dict(sorted(names.items(), key=lambda kv: -kv[1])[:limit])
        for root, names in sorted(table.items())
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: dict | None = None) -> dict:
    """Prepare, set up and measure one workload; returns the full report.

    ``sizes`` overrides the workload's input sizes (the self-test shrinks them).
    """
    from hostclock import HostClock
    from workloads import WORKLOADS, Outcome, timed_setups

    workload = WORKLOADS[name](work, seed, **(sizes or {}))
    workload.prepare()
    outcome = Outcome()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(seed)}
    if not trace:
        # Set-up and measurement each scale by the host speed of their own
        # phase: the host can change speed between them.
        setup_clock, clock = HostClock(), HostClock()
        state, setups = timed_setups(workload.setup, setup_clock)
        measured = workload.measure(seconds, outcome, state, clock)
        metrics = {"setup_s": (statistics.median(map(setup_clock.scaled, setups)), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        metrics.update({k: (v, END_TO_END_UNITS[k]) for k, v in measured["gated"].items()})
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
        raw = {"setup_s": statistics.median(i.raw for i in setups), **measured["raw"]}
        named = dict(measured["named"])
        named.update({f"raw.{k}": (v, END_TO_END_UNITS[k]) for k, v in raw.items()
                      if k in END_TO_END_UNITS})
        named["host_speed.setup"] = (setup_clock.speed(), "x")
        named["host_speed"] = (clock.speed(), "x")
        report.update(setup_s=[i.raw for i in setups], named=named,
                      kernel_s={"setup": setup_clock.sample_s, "measure": clock.sample_s},
                      samples=measured["samples"],
                      digests=measured["digests"])
    else:
        from workloads import null_span

        start = time.perf_counter()
        workload.fixed_pass(outcome, null_span)
        untraced_s = time.perf_counter() - start
        tracer = make_tracer()
        with tracer:
            start = time.perf_counter()
            workload.fixed_pass(outcome, tracer.span)
            traced_s = time.perf_counter() - start
        metrics = per_layer_metrics(tracer, traced_s, untraced_s)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        report.update(
            untraced_s=untraced_s, traced_s=traced_s, spans=str(spans_path.relative_to(ROOT)),
            self_s=dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
            calls=dict(tracer.calls), top_self_s=top_self_times(tracer),
            digests=workload.artifacts(),
        )
    report.update(correct=outcome.failed == 0, attempted=outcome.attempted,
                  failed=outcome.failed, errors=outcome.errors, metrics=metrics)
    return report


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def print_report(report: dict) -> None:
    print(f"memalign benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for kind, values in (("named", report.get("named", {})), ("metric", report["metrics"])):
        for key, (value, unit) in values.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{kind} {key} = {shown} {unit}")
    if "samples" in report:
        print("samples " + json.dumps(report["samples"]))
    if "top_self_s" in report:
        for root, names in report["top_self_s"].items():
            listed = ", ".join(f"{n} {s:.3f}s" for n, s in names.items())
            print(f"self time in {root}: {listed}")
    for key, digest in report.get("digests", {}).items():
        print(f"sha256 {key} {digest}")
    for error in report["errors"]:
        print(f"failed: {error}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "serve", "long-memory"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Serve fixture training, run in a child process.
    parser.add_argument("--fixtures", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fixtures is None and args.workload is None:
        parser.error("--workload is required")
    return args


def bootstrap() -> None:
    """Import memalign from this checkout's ``src/``, or fail."""
    if not (SRC / "memalign" / "__init__.py").is_file():
        raise SystemExit(f"error: memalign sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import memalign

    if Path(memalign.__file__).resolve().parent != SRC / "memalign":
        raise SystemExit(f"error: imported memalign from {memalign.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bootstrap()
    if args.fixtures is not None:
        from workloads import Serve

        Serve(args.fixtures, args.seed).train_fixtures()
        return 0
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
