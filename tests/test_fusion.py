"""Max-pool fusion of aligned memory vectors."""
import numpy as np
import pytest

from memalign.fusion import FusionError, fuse_states
from memalign.unified import MemoryState, align_forward, init_alignment_module


def paradigm_states(n, seed=0):
    """Modules for ``n`` paradigms of differing input widths, and one state
    of each."""
    rng = np.random.default_rng(seed)
    modules = {f"p{i}": init_alignment_module(3 + i, 4, 5, seed=seed + i) for i in range(n)}
    states = [MemoryState(f"p{i}", rng.standard_normal(3 + i)) for i in range(n)]
    return states, modules


def aligned(states, modules):
    return [align_forward(modules[s.paradigm], s) for s in states]


def test_fuse_states_is_the_elementwise_maximum_of_aligned_states():
    states, modules = paradigm_states(3)
    fused = fuse_states(states, modules).values
    assert fused.shape == (5,)
    assert np.array_equal(fused, np.max(aligned(states, modules), axis=0))


def test_fuse_states_is_order_independent():
    states, modules = paradigm_states(4, seed=1)
    a = fuse_states(states, modules).values
    b = fuse_states(states[::-1], modules).values
    np.testing.assert_array_equal(a, b)


def test_fuse_states_idempotent_on_duplicates():
    states, modules = paradigm_states(1, seed=2)
    once = fuse_states(states, modules).values
    np.testing.assert_array_equal(fuse_states(states * 3, modules).values, once)
    np.testing.assert_array_equal(once, aligned(states, modules)[0])


def test_fuse_states_dominates_aligned_inputs():
    states, modules = paradigm_states(3, seed=3)
    fused = fuse_states(states, modules).values
    for v in aligned(states, modules):
        assert np.all(fused >= v)


def test_fuse_states_requires_module():
    m_a = init_alignment_module(3, 4, 2, seed=0)
    s_b = MemoryState("b", np.zeros(3))
    with pytest.raises(FusionError, match="'b'"):
        fuse_states([s_b], {"a": m_a})
    with pytest.raises(FusionError):
        fuse_states([], {"a": m_a})
