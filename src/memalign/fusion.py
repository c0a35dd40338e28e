"""Plug-and-play fusion of heterogeneous memories in the unified space:
elementwise max pooling over aligned vectors, with each state's
provenance.  Retrieval pools its views through ``pipeline.condition``."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .unified import AlignmentModule, MemoryState, align_forward


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FusedMemory:
    values: np.ndarray
    provenance: tuple[tuple[str, str], ...]  # (paradigm, source digest)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if not self.provenance:
            raise FusionError("fused memory requires nonempty provenance")


def fuse_max(
    vectors: list[np.ndarray],
    provenance: list[tuple[str, str]] | None = None,
) -> FusedMemory:
    """Elementwise maximum over unified vectors; order-independent."""
    if not vectors:
        raise FusionError("cannot fuse an empty vector list")
    stacked = [np.asarray(v, dtype=np.float64) for v in vectors]
    dim = stacked[0].shape
    for vec in stacked[1:]:
        if vec.shape != dim:
            raise FusionError(f"dimension mismatch {vec.shape} vs {dim}")
    if provenance is None:
        provenance = [("unknown", f"input-{i}") for i in range(len(stacked))]
    if len(provenance) != len(stacked):
        raise FusionError("provenance length must match vector count")
    return FusedMemory(np.max(np.stack(stacked), axis=0), tuple(provenance))


def fuse_states(
    states: list[MemoryState], modules: dict[str, AlignmentModule]
) -> FusedMemory:
    """Project each state via its paradigm's alignment module, then max-pool."""
    if not states:
        raise FusionError("cannot fuse an empty state list")
    vectors = []
    provenance = []
    for state in states:
        module = modules.get(state.paradigm)
        if module is None:
            raise FusionError(f"no alignment module for paradigm {state.paradigm!r}")
        vectors.append(align_forward(module, state))
        provenance.append((state.paradigm, state.digest()))
    return fuse_max(vectors, provenance)

