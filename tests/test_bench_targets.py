"""The functions the benchmark's tracer wraps exist in memalign.

``bench/run.py`` is read with ``ast`` rather than imported: importing it pins
the BLAS thread count of the importing process.
"""
import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


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
