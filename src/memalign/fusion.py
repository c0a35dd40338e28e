"""Plug-and-play fusion of heterogeneous memories in the unified space:
elementwise max pooling over aligned vectors.  Retrieval pools its views
through ``pipeline.condition``."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .unified import AlignmentModule, MemoryState, align_forward


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FusedMemory:
    values: np.ndarray


def fuse_states(
    states: list[MemoryState], modules: dict[str, AlignmentModule]
) -> FusedMemory:
    """Project each state via its paradigm's alignment module, then take the
    elementwise maximum; order-independent."""
    if not states:
        raise FusionError("cannot fuse an empty state list")
    vectors = []
    for state in states:
        module = modules.get(state.paradigm)
        if module is None:
            raise FusionError(f"no alignment module for paradigm {state.paradigm!r}")
        vectors.append(align_forward(module, state))
    return FusedMemory(np.max(np.stack(vectors), axis=0))
