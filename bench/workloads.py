"""Inputs and workloads of the memalign benchmark.

Each workload is one closed-loop client in this process: it waits for every
call into memalign to return before it issues the next one.  memalign is
called through its public API and through ``memalign.cli.main(argv)``.

* ``train``: the ``train-retriever`` stage, then ``train-align`` for
  ``explicit-sim`` and ``latent-sim``, on a 400-instance synthetic corpus at
  the default dimensions.  Decoding does no work here.
* ``serve``: single retrieval requests over a 200-instance small-graph corpus,
  cycling through the anchor view, a single-paradigm view and a two-paradigm
  max-pooled fusion at coverage 0.5 and 1.0; then the CLI ``retrieve``,
  ``fuse-retrieve`` and ``eval`` stages over the whole corpus.  The fixtures
  (a retriever and two aligners) are trained briefly in a child process before
  anything is timed.  Training does no work here.
* ``long-memory``: single decode requests on memory graphs of five sizes,
  evenly spaced from 85 to 365 nodes within the range 50 to 400, with 3.5
  edges per node, using one shared vocabulary and a seeded, untrained
  retriever, so the workload never depends on training arithmetic.

The workload seed selects the inputs (corpora, graphs, queries, conditioning
vectors) and the CLI ``--seed``.  The long-memory retriever's weights come from
a fixed seed: they are part of the program under test, not an input.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import memalign
import memalign.cli
from memalign import (
    Edge,
    MemoryGraph,
    Node,
    Vocabulary,
    build_runtime,
    build_vocabulary,
    coverage_mask,
    emit_evidence,
    fuse_states,
    generate_subgraph,
    generate_synthetic_corpus,
    init_retriever,
    load_checkpoint,
    load_config,
    load_corpus,
    parse_evidence,
    parse_full_graph,
    save_checkpoint,
    save_corpus,
    verify_subset,
)
from memalign.corpus import ADJECTIVES, NOUNS, RELATIONS, instance_content
from memalign.graphs import emit
from memalign.pipeline import (
    ANCHOR_PARADIGM,
    module_from_sections,
    retriever_from_sections,
    retriever_sections,
)
from memalign.seeding import subseed
from memalign.tokenization import linearize
from memalign.unified import align_forward

from hostclock import HostClock

TARGET_PARADIGMS = ("explicit-sim", "latent-sim")

# Short but non-trivial training: the train workload and the serve fixtures.
TRAIN_OVERRIDES = {
    "distillation": {"Epochs": 3, "Learning rate": 0.01, "Per-device batch size": 8},
    "alignment": {"Epochs": 10, "Learning rate": 0.001, "Holdout": 100},
}
TRAIN_INSTANCES = 400
TRAIN_MIN_PASSES = 2
SERVE_INSTANCES = 200
# The serve fixtures train on 200 instances: a smaller holdout leaves the
# alignment pool larger than its 128 negatives.
SERVE_FIXTURE_OVERRIDES = {
    "distillation": TRAIN_OVERRIDES["distillation"],
    "alignment": {**TRAIN_OVERRIDES["alignment"], "Holdout": 50},
}
SERVE_COVERAGE = (0.5, 1.0)
SERVE_VIEWS = ("anchor", "single", "fused")
SERVE_COMBOS = len(SERVE_VIEWS) * len(SERVE_COVERAGE)
# Set-up is short and noisy, so it is repeated at least this many times and
# for at least this long; its median is reported.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

LONG_MEMORY_NODES = (50, 400)
# A round decodes one graph at the middle of each of five equal slices of the
# node range (85, 155, 225, 295 and 365 nodes), so every round has the same
# sizes.  With five sizes the median and the p90 request each fall in the
# middle of one size, not on the edge between two.  The pool holds more
# distinct rounds than a run gets through.
LONG_MEMORY_PER_ROUND = 5
LONG_MEMORY_ROUNDS = 32
LONG_MEMORY_EDGES_PER_NODE = 3.5
LONG_MEMORY_FIXED_ROUNDS = 2
LONG_MEMORY_MODEL_SEED = 0
LONG_MEMORY_CONFIDENCES = ("0.5", "0.9", "1.0")


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(problem)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_text(overrides: dict) -> str:
    """The default engine config file with some keys replaced."""
    lines = []
    section = None
    for line in memalign.default_config_text().splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif " = " in line:
            key = line.split(" = ", 1)[0]
            if key in overrides.get(section, {}):
                line = f"{key} = {overrides[section][key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def engine_config(path: Path, seed: int):
    """The config ``memalign --config path --seed seed`` runs with."""
    cfg = load_config(path)
    cfg.seed = cfg.align.seed = cfg.distill.seed = seed
    return cfg


def run_cli(argv: list) -> int:
    """``memalign.cli.main`` with its progress messages kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return memalign.cli.main([str(a) for a in argv])


def training_stages(corpus: Path, config: Path, seed: int, out: Path):
    """(stage, argv) of each training CLI call: the retriever, then each aligner."""
    common = ["--corpus", corpus, "--config", config, "--seed", seed, "--out", out]
    yield "train-retriever", ["train-retriever", *common]
    for paradigm in TARGET_PARADIGMS:
        yield "train-align", ["train-align", "--paradigm", paradigm, *common]


def finite_losses(report: dict) -> bool:
    losses = report.get("epoch_losses") or []
    return bool(losses) and all(math.isfinite(x) for x in losses)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def check_retrieved(path: Path, graphs: dict) -> str | None:
    """Every line of a retrieved file parses and verifies against its graph."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(graphs):
        return f"{path.name}: {len(lines)} lines for {len(graphs)} instances"
    for line in lines:
        row = json.loads(line)
        try:
            sub = parse_evidence(row["evidence"])
        except ValueError as exc:
            return f"{path.name}: {row.get('id')}: {exc}"
        if not verify_subset(sub, graphs[row["id"]]).accepted:
            return f"{path.name}: {row['id']}: evidence fails verification"
    return None


class EvidenceStream:
    """sha256 over the evidence documents of the first pass of requests."""

    def __init__(self, size: int):
        self.size = size
        self.seen = 0
        self._hash = hashlib.sha256()

    def add(self, text: str) -> None:
        if self.seen < self.size:
            self._hash.update(text.encode("utf-8"))
            self.seen += 1

    def hexdigest(self) -> str | None:
        return self._hash.hexdigest() if self.seen == self.size else None


def timed_request(request, k: int, vocab, outcome: Outcome, span, clock, stream=None):
    """Issue request ``k`` and record its outcome: a decode that raises or
    evidence that fails verification is a failed operation.

    Returns (the request's interval on ``clock``, tokens decoded).
    """
    problem = None
    with span("request"), clock.timed() as interval:
        try:
            sub, accepted = request(k)
        except (ValueError, RuntimeError) as exc:
            sub, accepted, problem = None, False, f"request {k}: {exc!r}"
    if problem is None and not accepted:
        problem = f"request {k}: evidence fails verification"
    outcome.record(problem)
    if sub is None:
        return interval, 0
    if stream is not None:
        stream.add(emit_evidence(sub))
    return interval, len(linearize(sub.graph, vocab, sub.confidence)) - 1


def timed_setups(setup, clock: HostClock):
    """Run set-up several times; return the last state and every interval."""
    intervals = []
    state = None
    with clock:
        while len(intervals) < SETUP_REPEATS or sum(i.raw for i in intervals) < SETUP_MIN_S:
            with clock.timed() as interval:
                state = setup()
            intervals.append(interval)
    return state, intervals


def both_clocks(summarize, clock: HostClock) -> tuple[dict, dict]:
    """``summarize(seconds_of)`` with scaled times, and with raw wall times."""
    return summarize(clock.scaled), summarize(lambda interval: interval.raw)


# -- train ---------------------------------------------------------------


class Train:
    name = "train"

    def __init__(self, work: Path, seed: int, instances: int = TRAIN_INSTANCES,
                 overrides: dict = TRAIN_OVERRIDES):
        self.work = work
        self.seed = seed
        self.instances = instances
        self.overrides = overrides
        self.corpus = work / "corpus.jsonl"
        self.config = work / "engine.ini"
        self.out = work / "out"

    def prepare(self) -> None:
        save_corpus(generate_synthetic_corpus(self.instances, self.seed), self.corpus)
        self.config.write_text(config_text(self.overrides), encoding="utf-8")

    def setup(self):
        cfg = engine_config(self.config, self.seed)
        return build_runtime(cfg), load_corpus(self.corpus, d_c=cfg.d_c)

    def cycle(self, outcome: Outcome, span, clock: HostClock) -> list[dict]:
        """One pass: every training stage once.  Returns one record per stage."""
        records = []
        for stage, argv in training_stages(self.corpus, self.config, self.seed, self.out):
            with span(f"cli.{stage}"), clock.timed() as interval:
                code = run_cli(argv)
            record = {"stage": stage, "interval": interval, "units": 0}
            problem = None if code == 0 else f"{stage} exited with {code}"
            if problem is None:
                problem = self._check(stage, argv, record)
            outcome.record(problem)
            records.append(record)
        return records

    def _check(self, stage: str, argv: list, record: dict) -> str | None:
        if stage == "train-retriever":
            report = json.loads((self.out / "retriever_report.json").read_text())
            if not finite_losses(report):
                return "train-retriever: non-finite epoch loss"
            record["units"] = report["n_examples"] * len(report["epoch_losses"])
            record["final_loss"] = report["epoch_losses"][-1]
            return None
        paradigm = argv[argv.index("--paradigm") + 1]
        report = json.loads((self.out / f"align_{paradigm}_report.json").read_text())
        if not finite_losses(report):
            return f"train-align {paradigm}: non-finite epoch loss"
        if report["anchor_digest_before"] != report["anchor_digest_after"]:
            return f"train-align {paradigm}: anchor module changed"
        demos = self.instances - report["holdout_size"]
        record["units"] = demos * len(report["epoch_losses"])
        record["holdout_accuracy"] = report["holdout_accuracy"]
        return None

    def artifacts(self) -> dict[str, str]:
        return {p.name: sha256_file(p) for p in sorted(self.out.iterdir())}

    def measure(self, seconds: float, outcome: Outcome, state, clock: HostClock) -> dict:
        passes: list[list[dict]] = []
        pass_wall = 0.0
        with clock:
            start = time.perf_counter()
            # An alignment call lasts a few seconds, so every run times at
            # least two passes; after that a pass starts only if the last one
            # says it ends by the deadline.
            while (len(passes) < TRAIN_MIN_PASSES
                   or time.perf_counter() - start + pass_wall <= seconds):
                pass_start = time.perf_counter()
                passes.append(self.cycle(outcome, null_span, clock))
                pass_wall = time.perf_counter() - pass_start
        records = [r for records in passes for r in records]
        retr = [r for r in records if r["stage"] == "train-retriever"]
        align = [r for r in records if r["stage"] == "train-align"]

        def summarize(seconds_of) -> dict:
            def busy(rs):
                return sum(seconds_of(r["interval"]) for r in rs)

            return {
                "pass_s": statistics.median(busy(rs) for rs in passes),
                "throughput_per_s": sum(r["units"] for r in records) / busy(records),
                # Two of a pass's three stage calls align, so the median call
                # is an alignment call; the mean of those calls estimates it
                # with less noise than the slower of the two.  The retriever
                # call is the slowest.
                "latency_p50_ms": 1000 * busy(align) / len(align),
                "latency_tail_ms": 1000 * busy(retr) / len(retr),
                "retriever_examples_per_s": sum(r["units"] for r in retr) / busy(retr),
                "align_demos_per_s": sum(r["units"] for r in align) / busy(align),
            }

        gated, raw = both_clocks(summarize, clock)
        named = {
            "retriever_examples_per_s": (gated.pop("retriever_examples_per_s"), "1/s"),
            "align_demos_per_s": (gated.pop("align_demos_per_s"), "1/s"),
            "retriever_final_loss": (retr[-1].get("final_loss", float("nan")), "nats"),
            "align_holdout_accuracy": (
                statistics.fmean(r.get("holdout_accuracy", float("nan")) for r in align[-2:]),
                "fraction"),
        }
        samples = {"cycles": len(passes), "stage_calls": len(records)}
        return {"gated": gated, "raw": raw, "named": named, "samples": samples,
                "digests": self.artifacts()}

    def fixed_pass(self, outcome: Outcome, span) -> None:
        with span("setup"):
            self.setup()
        self.cycle(outcome, span, HostClock())


# -- serve ---------------------------------------------------------------


class Serve:
    name = "serve"

    def __init__(self, work: Path, seed: int, instances: int = SERVE_INSTANCES,
                 overrides: dict = SERVE_FIXTURE_OVERRIDES):
        self.work = work
        self.seed = seed
        self.instances = instances
        self.overrides = overrides
        self.corpus = work / "corpus.jsonl"
        self.config = work / "engine.ini"
        self.fixtures = work / "fixtures"
        self.out = work / "out"

    def prepare(self) -> None:
        save_corpus(generate_synthetic_corpus(self.instances, self.seed), self.corpus)
        self.config.write_text(config_text(self.overrides), encoding="utf-8")
        # Fixture training runs in a child process, so that neither its time
        # nor its memory shows in this process's measurements.
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--fixtures",
             str(self.work), "--seed", str(self.seed)],
            check=True, timeout=150, stdout=subprocess.DEVNULL,
        )

    def train_fixtures(self) -> None:
        """Train the retriever and both aligners into ``fixtures/``."""
        for stage, argv in training_stages(self.corpus, self.config, self.seed, self.fixtures):
            code = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"fixture stage {stage} exited with {code}")

    def setup(self):
        cfg = engine_config(self.config, self.seed)
        runtime = build_runtime(cfg)
        instances = load_corpus(self.corpus, d_c=cfg.d_c)
        model = retriever_from_sections(load_checkpoint(self.fixtures / "retriever.ckpt"))
        vocab = Vocabulary.load(self.fixtures / "vocab.jsonl")
        modules = {
            p: module_from_sections(load_checkpoint(self.fixtures / f"align_{p}.ckpt"), "align")
            for p in TARGET_PARADIGMS
        }
        return {"runtime": runtime, "instances": instances, "model": model,
                "vocab": vocab, "modules": modules}

    @property
    def pass_size(self) -> int:
        return self.instances * SERVE_COMBOS

    def request(self, state: dict, k: int):
        """Request ``k``: its instance, view and coverage follow from ``k``."""
        runtime = state["runtime"]
        instance = state["instances"][(k // SERVE_COMBOS) % len(state["instances"])]
        view = SERVE_VIEWS[(k % SERVE_COMBOS) // len(SERVE_COVERAGE)]
        level = SERVE_COVERAGE[k % len(SERVE_COVERAGE)]
        segments = instance.segment_count
        masks = [coverage_mask(side, level, segments) for side in (0, 1)]
        content = instance_content(instance, TARGET_PARADIGMS)
        if view == "anchor":
            mask = None if level == 1.0 else masks[0] | masks[1]
            state_vec = runtime.registry.encode_state(ANCHOR_PARADIGM, content, mask)
            h = align_forward(runtime.anchor_module, state_vec)
        elif view == "single":
            side = (k // SERVE_COMBOS) % 2
            paradigm = TARGET_PARADIGMS[side]
            state_vec = runtime.registry.encode_state(paradigm, content, masks[side])
            h = align_forward(state["modules"][paradigm], state_vec)
        else:
            states = [
                runtime.registry.encode_state(p, content, masks[side])
                for side, p in enumerate(TARGET_PARADIGMS)
            ]
            h = fuse_states(states, state["modules"]).values
        full = parse_full_graph(instance.full_graph_text)
        q = runtime.embedder.embed(instance.query)
        sub = generate_subgraph(state["model"], full, q, h, state["vocab"])
        accepted = verify_subset(sub, full).accepted
        return sub, accepted

    def run_requests(self, state, count, deadline, outcome, span, clock, stream=None):
        """Issue requests until ``count`` are done or ``deadline`` passes.

        Returns (intervals, decoded tokens).  Requests go in groups of one
        instance's six view/coverage combinations, so every run sees the same
        mix.
        """
        intervals = []
        tokens = 0
        k = 0
        while k < count and (k % SERVE_COMBOS or time.perf_counter() < deadline):
            interval, decoded = timed_request(
                functools.partial(self.request, state), k, state["vocab"], outcome, span,
                clock, stream)
            intervals.append(interval)
            tokens += decoded
            k += 1
        return intervals, tokens

    def cli_pass(self, state, outcome: Outcome, span, clock: HostClock) -> list:
        """retrieve, fuse-retrieve and eval over the whole corpus; returns
        each stage's interval."""
        common = ["--corpus", self.corpus, "--config", self.config, "--seed", self.seed,
                  "--checkpoints", self.fixtures, "--out", self.out]
        graphs = {i.id: i.full_graph() for i in state["instances"]}
        intervals = []
        for stage, checked in (("retrieve", "retrieved.jsonl"),
                               ("fuse-retrieve", "fused_retrieved.jsonl"),
                               ("eval", "eval_report.json")):
            with span(f"cli.{stage}"), clock.timed() as interval:
                code = run_cli([stage, *common])
            intervals.append(interval)
            if code != 0:
                outcome.record(f"{stage} exited with {code}")
            elif stage == "eval":
                report = json.loads((self.out / checked).read_text())
                outcome.record(None if report.get("n") == len(graphs)
                               else "eval: report covers the wrong instance count")
            else:
                outcome.record(check_retrieved(self.out / checked, graphs))
        return intervals

    def artifacts(self) -> dict[str, str]:
        paths = sorted(self.fixtures.iterdir()) + sorted(self.out.iterdir())
        return {f"{p.parent.name}/{p.name}": sha256_file(p) for p in paths}

    def measure(self, seconds: float, outcome: Outcome, state, clock: HostClock) -> dict:
        stream = EvidenceStream(self.pass_size)
        passes = []
        with clock:
            # Warm-up: one instance's requests, not recorded.
            self.run_requests(state, SERVE_COMBOS, math.inf, Outcome(), null_span, clock)
            start = time.perf_counter()
            requests, tokens = self.run_requests(
                state, math.inf, start + seconds, outcome, null_span, clock, stream)
            while not passes or time.perf_counter() - start < 1.5 * seconds:
                passes.append(self.cli_pass(state, outcome, null_span, clock))

        def summarize(seconds_of) -> dict:
            latencies = [seconds_of(i) for i in requests]
            busy = sum(latencies)
            pass_times = [sum(seconds_of(i) for i in stages) for stages in passes]
            return {
                "pass_s": statistics.median(pass_times),
                "throughput_per_s": len(latencies) / busy,
                "latency_p50_ms": 1000 * statistics.median(latencies),
                "latency_tail_ms": 1000 * percentile(latencies, 90),
                "request_p99_ms": 1000 * percentile(latencies, 99),
                "decode_tokens_per_s": tokens / busy,
                "batch_instances_per_s": 3 * self.instances * len(passes) / sum(pass_times),
            }

        gated, raw = both_clocks(summarize, clock)
        named = {
            "requests_per_s": (gated["throughput_per_s"], "1/s"),
            "request_p50_ms": (gated["latency_p50_ms"], "ms"),
            "request_p90_ms": (gated["latency_tail_ms"], "ms"),
            "request_p99_ms": (gated.pop("request_p99_ms"), "ms"),
            "decode_tokens_per_s": (gated.pop("decode_tokens_per_s"), "1/s"),
            "batch_instances_per_s": (gated.pop("batch_instances_per_s"), "1/s"),
        }
        digests = self.artifacts()
        digests["evidence_stream"] = stream.hexdigest()
        samples = {"requests": len(requests), "cli_passes": len(passes)}
        return {"gated": gated, "raw": raw, "named": named, "samples": samples,
                "digests": digests}

    def fixed_pass(self, outcome: Outcome, span) -> None:
        with span("setup"):
            state = self.setup()
        clock = HostClock()
        self.run_requests(state, self.pass_size, math.inf, outcome, span, clock)
        self.cli_pass(state, outcome, span, clock)


# -- long-memory ---------------------------------------------------------


def memory_graph(rng: np.random.Generator, n_nodes: int, n_edges: int) -> MemoryGraph:
    """A random memory graph over the corpus word pools."""
    nodes = tuple(
        Node(f"N{i + 1}", f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}")
        for i in range(n_nodes)
    )
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_edges:
        a, b = (int(x) for x in rng.integers(n_nodes, size=2))
        if a != b:
            pairs.add((a, b))
    edges = tuple(
        Edge(f"N{a + 1}", f"N{b + 1}", str(rng.choice(RELATIONS))) for a, b in sorted(pairs)
    )
    return MemoryGraph(nodes, edges)


class LongMemory:
    name = "long-memory"

    def __init__(self, work: Path, seed: int, nodes=LONG_MEMORY_NODES,
                 per_round: int = LONG_MEMORY_PER_ROUND, rounds: int = LONG_MEMORY_ROUNDS):
        self.work = work
        self.seed = seed
        self.nodes = tuple(nodes)
        self.per_round = per_round
        self.rounds = rounds
        self.pool = work / "requests.jsonl"
        self.config = work / "engine.ini"
        self.fixtures = work / "fixtures"

    def prepare(self) -> None:
        low, high = self.nodes
        words = [f"N{i + 1}" for i in range(high)]
        words += [*ADJECTIVES, *NOUNS, *RELATIONS, *LONG_MEMORY_CONFIDENCES]
        vocab = build_vocabulary(words)
        cfg = memalign.EngineConfig()
        model = init_retriever(len(vocab), cfg.d_m, cfg.d_q, cfg.d_s, LONG_MEMORY_MODEL_SEED)
        self.fixtures.mkdir(parents=True, exist_ok=True)
        save_checkpoint(retriever_sections(model), self.fixtures / "retriever.ckpt")
        vocab.save(self.fixtures / "vocab.jsonl")
        self.config.write_text(memalign.default_config_text(), encoding="utf-8")

        rng = np.random.default_rng(subseed(self.seed, "bench-long-memory"))
        rows = []
        for _ in range(self.rounds):
            for i in range(self.per_round):
                n = low + int((i + 0.5) * (high - low + 1) / self.per_round)
                graph = memory_graph(rng, n, int(round(n * LONG_MEMORY_EDGES_PER_NODE)))
                picks = rng.choice(n, size=2, replace=False)
                query = "which chain of links runs through " + " and ".join(
                    graph.nodes[int(j)].description for j in picks)
                h = rng.standard_normal(cfg.d_s)
                rows.append({"graph": emit(graph, "full"), "query": query,
                             "h": (h / np.linalg.norm(h)).tolist()})
        self.pool.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def setup(self):
        runtime = build_runtime(engine_config(self.config, self.seed))
        model = retriever_from_sections(load_checkpoint(self.fixtures / "retriever.ckpt"))
        vocab = Vocabulary.load(self.fixtures / "vocab.jsonl")
        requests = [json.loads(line) for line in self.pool.read_text().splitlines()]
        for row in requests:
            row["h"] = np.asarray(row["h"])
        return {"runtime": runtime, "model": model, "vocab": vocab, "requests": requests}

    def request(self, state: dict, k: int):
        row = state["requests"][k % len(state["requests"])]
        full = parse_full_graph(row["graph"])
        q = state["runtime"].embedder.embed(row["query"])
        sub = generate_subgraph(state["model"], full, q, row["h"], state["vocab"])
        return sub, verify_subset(sub, full).accepted

    def run_round(self, state, r: int, outcome, span, clock, stream=None):
        """Round ``r``: one request on a graph from each slice of the node range.

        Returns (interval, decoded tokens) per request.
        """
        first = (r % self.rounds) * self.per_round
        return [
            timed_request(functools.partial(self.request, state), k, state["vocab"],
                          outcome, span, clock, stream)
            for k in range(first, first + self.per_round)
        ]

    def artifacts(self) -> dict[str, str]:
        return {f"fixtures/{p.name}": sha256_file(p) for p in sorted(self.fixtures.iterdir())}

    def measure(self, seconds: float, outcome: Outcome, state, clock: HostClock) -> dict:
        stream = EvidenceStream(self.per_round)
        rounds = []
        with clock:
            # Warm-up on the smallest graph, not recorded.
            self.request(state, 0)
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(self.run_round(
                    state, len(rounds), outcome, null_span, clock, stream))
        requests = [request for r in rounds for request in r]
        tokens = sum(decoded for _, decoded in requests)

        def summarize(seconds_of) -> dict:
            latencies = [seconds_of(i) for i, _ in requests]
            busy = sum(latencies)
            # Output length varies by a CV of about 0.23 among graphs of one
            # size, so latency is gated per decoded token (one decode step).
            steps = [seconds_of(i) / decoded for i, decoded in requests if decoded]
            return {
                "pass_s": statistics.median(sum(seconds_of(i) for i, _ in r) for r in rounds),
                "throughput_per_s": tokens / busy,
                "latency_p50_ms": 1000 * statistics.median(steps),
                "latency_tail_ms": 1000 * percentile(steps, 90),
                "requests_per_s": len(latencies) / busy,
                "request_p50_ms": 1000 * statistics.median(latencies),
                "request_p90_ms": 1000 * percentile(latencies, 90),
            }

        gated, raw = both_clocks(summarize, clock)
        named = {
            "requests_per_s": (gated.pop("requests_per_s"), "1/s"),
            "request_p50_ms": (gated.pop("request_p50_ms"), "ms"),
            "request_p90_ms": (gated.pop("request_p90_ms"), "ms"),
            "decode_tokens_per_s": (gated["throughput_per_s"], "1/s"),
        }
        digests = self.artifacts()
        digests["evidence_stream"] = stream.hexdigest()
        samples = {"requests": len(requests), "rounds": len(rounds)}
        return {"gated": gated, "raw": raw, "named": named, "samples": samples,
                "digests": digests}

    def fixed_pass(self, outcome: Outcome, span) -> None:
        with span("setup"):
            state = self.setup()
        clock = HostClock()
        for r in range(LONG_MEMORY_FIXED_ROUNDS):
            self.run_round(state, r, outcome, span, clock)


@contextlib.contextmanager
def null_span(name: str):
    yield


WORKLOADS = {cls.name: cls for cls in (Train, Serve, LongMemory)}
