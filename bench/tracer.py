"""Span tracer that wraps memalign's public functions from outside the package.

A target is a ``(module, qualname)`` pair such as ``("decoding",
"ConstraintEngine.advance")``.  Installing the tracer replaces a function in
every namespace that bound it, or a method on its class; ``restore`` puts every
original back.  ``from .x import f`` binds ``f`` a second time, so the
namespaces searched are every ``memalign.*`` module plus the benchmark modules
named in ``callers``, which call memalign the same way.

Timed targets record one span per call: id, parent id, root id, name, start,
end and self time, kept in memory and written out when the run ends.  A span's
self time is its duration minus the time its direct child spans cover.  Counted targets
only count calls; they are for functions called so often (``cosine_sim``) that
a span per call would swamp the measurement.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, timed, counted=(), hooks=None, callers=()):
        self.timed = tuple(timed)
        self.namespaces = ("memalign", *callers)
        self.counted = tuple(counted)
        self.hooks = dict(hooks or {})
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        # Open spans: [span id, name, root id, time covered by children].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def parent_name(self) -> str | None:
        """Name of the innermost open span other than the caller's own."""
        return self._stack[-2][1] if len(self._stack) >= 2 else None

    def _open(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        root = self._stack[0][0] if self._stack else span_id
        frame = [span_id, name, root, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        name = frame[1]
        self.calls[name] += 1
        self.total_s[name] += duration
        own = duration - frame[3]
        self.self_s[name] += own
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, frame[2], name, start, end, own)
        )

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one request."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _timed_wrapper(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, start, time.perf_counter())
                raise
            end = time.perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            self._close(frame, start, end)
            return result

        return wrapper

    def _counted_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, qualname in self.timed:
                self._patch(module_name, qualname, self._timed_wrapper)
            for module_name, qualname in self.counted:
                self._patch(module_name, qualname, self._counted_wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, module_name: str, qualname: str, make) -> None:
        name = target_name(module_name, qualname)
        module = importlib.import_module(f"memalign.{module_name}")
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(make(name, original.__func__))
            else:
                replacement = make(name, original)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, qualname)
        replacement = make(name, original)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] not in self.namespaces:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name} is bound in no memalign module")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, root, name, start, end, own in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "root": root, "name": name,
                         "start": start, "end": end, "self": own}
                    )
                    + "\n"
                )


def target_name(module_name: str, qualname: str) -> str:
    return f"{module_name}.{qualname}"

