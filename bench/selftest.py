"""Fast self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

Checks that every workload, untraced and traced, prints every metric that
``BENCHMARK.json`` names, with its unit; that the tracer patches every binding
of a function and restores every one it patched; that a workload seed
regenerates identical inputs; and that the host clock takes its kernel time
out of what it times and stops its timer.  Exits 0 when every check passes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before NumPy is imported

TINY_OVERRIDES = {
    "distillation": {"Epochs": 1, "Learning rate": 0.01, "Per-device batch size": 8},
    "alignment": {"Epochs": 1, "Holdout": 8, "Negative sample size": 8, "Batch size": 8},
}
TINY = {
    "train": {"instances": 40, "overrides": TINY_OVERRIDES},
    "serve": {"instances": 24, "overrides": TINY_OVERRIDES},
    "long-memory": {"nodes": (20, 40), "per_round": 2, "rounds": 2},
}
SEED = 7

failures: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_printed_metrics(spec: dict, tmp_root: Path) -> None:
    fixtures = []
    for name in TINY:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            work = Path(tempfile.mkdtemp(dir=tmp_root))
            report = run.run_workload(name, SEED, 0.2, bool(trace), work, TINY[name])
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                run.print_report(report)
                print(run.result_line(report))
            lines = printed.getvalue().splitlines()
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} --trace {trace}"
            check(got == expected, f"{label}: every {kind} metric, with its unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in result["metrics"].values()), f"{label}: finite values")
            check(all(f"metric {k} = " in printed.getvalue() for k in expected),
                  f"{label}: every metric printed by name")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: {result['attempted']} operations, {result['failed']} failed")
            if name == "serve":
                fixtures.append({k: v for k, v in report["digests"].items()
                                 if k.startswith("fixtures/")})
    check(fixtures[0] == fixtures[1], "serve: a seed trains byte-identical fixtures")


def check_tracer_restores() -> None:
    import memalign.cli  # noqa: F401  (binds its names before the snapshot)
    import workloads  # noqa: F401

    def snapshot():
        state = {}
        for mod_name, mod in sys.modules.items():
            if mod is not None and mod_name.split(".")[0] in ("memalign", "workloads"):
                for attr, value in vars(mod).items():
                    state[(mod_name, attr)] = value
                    if isinstance(value, type):
                        for cls_attr, cls_value in vars(value).items():
                            state[(mod_name, f"{attr}.{cls_attr}")] = cls_value
        return state

    before = snapshot()
    tracer = run.make_tracer()
    with tracer:
        during = snapshot()
        patched = {key for key in before if during[key] is not before[key]}
        holders = {mod for mod, attr in patched if attr == "generate_subgraph"}
        check({"memalign.decoding", "memalign.fusion", "memalign.pipeline",
               "memalign.cli", "workloads"} <= holders,
              "tracer patches generate_subgraph wherever it is bound")
        check(any(attr == "RetrieverModel.cell" for _, attr in patched),
              "tracer patches RetrieverModel.cell")
    after = snapshot()
    check(bool(patched) and all(after[key] is before[key] for key in before),
          f"tracer restores all {len(patched)} patched bindings")


def check_host_clock() -> None:
    import signal
    import time

    from hostclock import REFERENCE_S, HostClock

    handler = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock:
        with clock.timed() as interval:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) is handler,
          "host clock stops its timer and restores the SIGALRM handler")
    check(len(clock.sample_s) >= 5 and 0.0 < interval.raw < 0.3,
          f"host clock: {len(clock.sample_s)} kernel samples, kernel time taken out "
          f"of the timed interval ({interval.raw:.3f} s of 0.3 s)")
    expected = interval.raw * REFERENCE_S / statistics.median(clock.sample_s)
    check(math.isclose(clock.scaled(interval), expected, rel_tol=0.5),
          "host clock scales by the kernel time around the interval")


def check_seeded_inputs(tmp_root: Path) -> None:
    from workloads import LongMemory, Train

    for cls, kwargs, inputs in ((Train, TINY["train"], ("corpus.jsonl", "engine.ini")),
                                (LongMemory, TINY["long-memory"], ("requests.jsonl", "fixtures"))):
        trees = []
        for seed in (SEED, SEED, SEED + 1):
            work = Path(tempfile.mkdtemp(dir=tmp_root))
            cls(work, seed, **kwargs).prepare()
            trees.append({k: v for k, v in digest_tree(work).items()
                          if k.split("/")[0] in inputs})
        check(bool(trees[0]) and trees[0] == trees[1],
              f"{cls.name}: a seed regenerates identical inputs")
        check(trees[0] != trees[2], f"{cls.name}: another seed gives other inputs")


def main() -> int:
    run.bootstrap()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        check_tracer_restores()
        check_host_clock()
        check_seeded_inputs(tmp_root)
        check_printed_metrics(spec, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
