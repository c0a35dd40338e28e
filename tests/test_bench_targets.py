"""The functions the benchmark's tracer wraps, and the names its workloads
import from memalign, exist in memalign.

``bench/run.py`` is read with ``ast`` rather than imported: importing it pins
the BLAS thread count of the importing process.  ``bench/workloads.py`` is
read the same way, so that these checks need none of the benchmark's own
modules.
"""
import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
WORKLOADS = RUN.with_name("workloads.py")


def _constants() -> dict:
    """The module-level constants of bench/run.py that are literals."""
    values = {}
    for node in ast.parse(RUN.read_text(encoding="utf-8"), str(RUN)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    values[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return values


CONSTANTS = _constants()
TARGETS = [*CONSTANTS["TIMED"], *CONSTANTS["COUNTED"]]


@pytest.mark.parametrize("module_name, qualname", TARGETS, ids=".".join)
def test_traced_target_resolves(module_name, qualname):
    # The tracer replaces a method in its class's own namespace and a
    # function wherever the package binds it.
    module = importlib.import_module(f"memalign.{module_name}")
    if "." in qualname:
        class_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, qualname))


def test_the_benchmark_wraps_targets():
    assert CONSTANTS["TIMED"] and CONSTANTS["COUNTED"]


def _memalign_path(node: ast.expr) -> str | None:
    """``memalign.a.b`` for an attribute chain read from the name
    ``memalign``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "memalign":
        return ".".join(["memalign", *reversed(parts)])
    return None


def _workload_references() -> list[str]:
    """Every dotted memalign name that bench/workloads.py imports or reads."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "memalign")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "memalign":
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute) and (path := _memalign_path(node)):
            names.add(path)
    return sorted(names)


REFERENCES = _workload_references()


@pytest.mark.parametrize("dotted", REFERENCES)
def test_workload_reference_resolves(dotted):
    obj = importlib.import_module("memalign")
    prefix = "memalign"
    for part in dotted.split(".")[1:]:
        prefix += "." + part
        # A submodule the package has not imported yet is imported here.
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(prefix)


def test_the_workloads_import_from_memalign():
    assert "memalign.unified.align_forward" in REFERENCES
    assert "memalign.cli.main" in REFERENCES
