"""The unified memory space: paradigm registry, synthetic encoders, and
feed-forward alignment modules.

Heterogeneous memory systems are simulated by deterministic synthetic
encoders (a fixed seeded random linear map followed by a smooth
nonlinearity), so cross-paradigm instance identity is well-defined and
alignment is learnable at desk scale.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .optim import FlatParameters


class UnifiedSpaceError(ValueError):
    pass


@functools.lru_cache(maxsize=64)
def segment_blocks(dim: int, n_seg: int) -> tuple[slice, ...]:
    """The coordinate range of each of ``n_seg`` segments of a ``dim``-vector:
    the blocks of ``np.array_split(np.arange(dim), n_seg)``."""
    bounds = np.cumsum([0] + [len(b) for b in np.array_split(np.arange(dim), n_seg)])
    return tuple(slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:]))


def mask_segments(vec: np.ndarray, segment_count: int, segment_mask: set[int]) -> np.ndarray:
    """A copy of ``vec`` with the coordinates of every segment outside
    ``segment_mask`` zeroed."""
    blocks = segment_blocks(vec.shape[0], segment_count)
    masked = np.zeros_like(vec)
    for idx in segment_mask:
        if not 0 <= idx < segment_count:
            raise UnifiedSpaceError(f"segment index {idx} out of range")
        masked[blocks[idx]] = vec[blocks[idx]]
    return masked


@dataclass(frozen=True)
class InstanceContent:
    """Desk-scale stand-in for an instance's long-horizon context."""

    id: str
    content_vector: np.ndarray
    gold_answer: str
    segment_tags: tuple[tuple[int, str], ...]  # (segment index, paradigm name)

    def __post_init__(self):
        vec = np.asarray(self.content_vector, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise UnifiedSpaceError(f"non-finite content vector for {self.id!r}")
        object.__setattr__(self, "content_vector", vec)
        object.__setattr__(self, "segment_tags", tuple(self.segment_tags))

    @property
    def segment_count(self) -> int:
        return len(self.segment_tags)


@dataclass(frozen=True)
class MemoryState:
    paradigm: str
    raw: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        if not np.all(np.isfinite(raw)):
            raise UnifiedSpaceError(f"non-finite memory state for {self.paradigm!r}")
        object.__setattr__(self, "raw", raw)


@dataclass(frozen=True)
class Paradigm:
    name: str
    d_t: int
    encoder_seed: int
    weight: np.ndarray  # d_t x d_c fixed random linear map


class ParadigmRegistry:
    """Registered memory paradigms with their synthetic encoders."""

    def __init__(self, d_c: int):
        if d_c < 1:
            raise UnifiedSpaceError("content dimension must be positive")
        self.d_c = d_c
        self._paradigms: dict[str, Paradigm] = {}

    def register_paradigm(self, name: str, d_t: int, encoder_seed: int) -> str:
        if name in self._paradigms:
            raise UnifiedSpaceError(f"paradigm {name!r} already registered")
        if d_t < 1:
            raise UnifiedSpaceError("paradigm dimension must be positive")
        rng = np.random.default_rng(encoder_seed)
        weight = rng.standard_normal((d_t, self.d_c)) / np.sqrt(self.d_c)
        self._paradigms[name] = Paradigm(name, d_t, encoder_seed, weight)
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._paradigms

    def names(self) -> tuple[str, ...]:
        return tuple(self._paradigms)

    def get(self, name: str) -> Paradigm:
        paradigm = self._paradigms.get(name)
        if paradigm is None:
            raise UnifiedSpaceError(f"unregistered paradigm {name!r}")
        return paradigm

    def encode_state(
        self,
        name: str,
        content: InstanceContent,
        segment_mask: set[int] | frozenset[int] | None = None,
    ) -> MemoryState:
        """Encode (optionally segment-masked) content into a paradigm state.

        ``segment_mask`` selects visible segments; coordinates of hidden
        segment blocks are zeroed, simulating partial-context memories.
        """
        vec = content.content_vector
        if segment_mask is not None:
            vec = mask_segments(vec, content.segment_count, segment_mask)
        return MemoryState(name, self.encode_rows(name, vec[None])[0])

    def encode_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Encode content rows (N, d_c) into paradigm states (N, d_t).

        ``weight @ rows[:, :, None]`` is one gemv per row, rounded as a
        one-row product is; an ``(N, d_c) @ weight.T`` gemm would round
        differently.
        """
        states = self.get(name).weight @ rows[:, :, None]
        return np.tanh(states, out=states)[:, :, 0]


@dataclass(frozen=True)
class AlignmentModule(FlatParameters):
    """Two-layer feed-forward map from a paradigm state space into the
    unified memory space; the fields are views of the one buffer ``flat``."""

    layer1_weight: np.ndarray  # d_hidden x d_in
    layer1_bias: np.ndarray
    layer2_weight: np.ndarray  # d_out x d_hidden
    layer2_bias: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        d_h, d_in = self.layer1_weight.shape
        d_out, d_h2 = self.layer2_weight.shape
        if self.layer1_bias.shape != (d_h,) or d_h2 != d_h:
            raise UnifiedSpaceError("inconsistent alignment module shapes")
        if self.layer2_bias.shape != (d_out,):
            raise UnifiedSpaceError("inconsistent alignment module shapes")
        if not np.all(np.isfinite(self.flat)):
            raise UnifiedSpaceError("non-finite alignment parameters")

    @property
    def d_in(self) -> int:
        return self.layer1_weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.layer2_weight.shape[0]

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, value in self.parameters().items():
            h.update(name.encode())
            h.update(value.tobytes())
        return h.hexdigest()


def init_alignment_module(d_in: int, d_hidden: int, d_out: int, seed: int) -> AlignmentModule:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    b1 = 1.0 / np.sqrt(d_in)
    b2 = 1.0 / np.sqrt(d_hidden)
    return AlignmentModule(
        rng.uniform(-b1, b1, size=(d_hidden, d_in)),
        np.zeros(d_hidden),
        rng.uniform(-b2, b2, size=(d_out, d_hidden)),
        np.zeros(d_out),
    )


def _as_input(module: AlignmentModule, state) -> np.ndarray:
    raw = state.raw if isinstance(state, MemoryState) else np.asarray(state, dtype=np.float64)
    if raw.shape[-1] != module.d_in:
        raise UnifiedSpaceError(
            f"state dimension {raw.shape[-1]} does not match module input "
            f"dimension {module.d_in}"
        )
    return raw


def align_hidden(module: AlignmentModule, x: np.ndarray) -> np.ndarray:
    """Layer 1 and its tanh on input rows ``x``, in one buffer."""
    hidden = x @ module.layer1_weight.T
    hidden += module.layer1_bias
    return np.tanh(hidden, out=hidden)


def align_output(module: AlignmentModule, hidden: np.ndarray) -> np.ndarray:
    """Layer 2 on hidden activations: the unified-space vectors."""
    return hidden @ module.layer2_weight.T + module.layer2_bias


def align_forward(module: AlignmentModule, state) -> np.ndarray:
    """Project a memory state into the unified memory space."""
    return align_output(module, align_hidden(module, _as_input(module, state)))


def hidden_gradients(
    module: AlignmentModule, x: np.ndarray, hidden: np.ndarray, up: np.ndarray, out=None
) -> dict[str, np.ndarray]:
    """Parameter gradients on input rows ``x`` (B, d_in) whose hidden
    activations ``align_hidden`` gave, given d(loss)/d(output) = ``up``
    (B, d_out), summed over the rows, written into the views
    ``module.views(out)`` (of a new buffer without ``out``) it returns."""
    grads = module.views(np.empty_like(module.flat) if out is None else out)
    d_pre1 = up @ module.layer2_weight
    # tanh' at the pre-activation is 1 - tanh^2, from the activations.
    d_pre1 *= 1.0 - hidden * hidden
    np.matmul(d_pre1.T, x, out=grads["layer1_weight"])
    d_pre1.sum(axis=0, out=grads["layer1_bias"])
    np.matmul(up.T, hidden, out=grads["layer2_weight"])
    up.sum(axis=0, out=grads["layer2_bias"])
    return grads


def align_gradients(module: AlignmentModule, state, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/d(output) = ``upstream``.

    Accepts a single state (1-D input/upstream) or a batch (2-D); batch
    gradients are summed over the batch axis.
    """
    x = np.atleast_2d(_as_input(module, state))
    up = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    if up.shape != (x.shape[0], module.d_out):
        raise UnifiedSpaceError("upstream gradient shape mismatch")
    return hidden_gradients(module, x, align_hidden(module, x), up)
