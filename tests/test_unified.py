"""Paradigm registry, synthetic encoders, and alignment-module gradients."""
import numpy as np
import pytest

from memalign.unified import (
    AlignmentModule,
    InstanceContent,
    MemoryState,
    ParadigmRegistry,
    UnifiedSpaceError,
    align_forward,
    align_gradients,
    align_hidden,
    align_output,
    hidden_gradients,
    init_alignment_module,
    segment_blocks,
)
from util import central_difference, relative_error


def make_content(d_c=16, seed=0, segments=4):
    rng = np.random.default_rng(seed)
    return InstanceContent(
        id=f"c{seed}",
        content_vector=rng.standard_normal(d_c),
        gold_answer="harbor",
        segment_tags=tuple((i, "p") for i in range(segments)),
    )


def test_registry_register_and_encode_deterministic():
    reg = ParadigmRegistry(16)
    reg.register_paradigm("p", 8, encoder_seed=7)
    content = make_content()
    s1 = reg.encode_state("p", content)
    s2 = reg.encode_state("p", content)
    assert s1.paradigm == "p"
    assert s1.raw.tobytes() == s2.raw.tobytes()


def test_registry_rejects_duplicates_and_unknown():
    reg = ParadigmRegistry(16)
    reg.register_paradigm("p", 8, 7)
    with pytest.raises(UnifiedSpaceError):
        reg.register_paradigm("p", 8, 7)
    with pytest.raises(UnifiedSpaceError):
        reg.get("q")


def test_segment_masking_zeroes_hidden_blocks():
    reg = ParadigmRegistry(16)
    reg.register_paradigm("p", 8, 7)
    content = make_content()
    full = reg.encode_state("p", content)
    masked = reg.encode_state("p", content, segment_mask=set())
    # Empty mask hides everything: encoding of the zero vector.
    zero = reg.encode_state(
        "p",
        InstanceContent(content.id, np.zeros(16), "x", content.segment_tags),
    )
    np.testing.assert_array_equal(masked.raw, zero.raw)
    assert not np.array_equal(full.raw, masked.raw)


def test_full_mask_equals_no_mask():
    reg = ParadigmRegistry(16)
    reg.register_paradigm("p", 8, 7)
    content = make_content()
    np.testing.assert_array_equal(
        reg.encode_state("p", content, {0, 1, 2, 3}).raw,
        reg.encode_state("p", content).raw,
    )


def test_mask_index_out_of_range():
    reg = ParadigmRegistry(16)
    reg.register_paradigm("p", 8, 7)
    with pytest.raises(UnifiedSpaceError):
        reg.encode_state("p", make_content(), {99})


def test_module_shape_validation():
    with pytest.raises(UnifiedSpaceError):
        AlignmentModule(np.zeros((4, 3)), np.zeros(5), np.zeros((2, 4)), np.zeros(2))


def test_align_forward_batch_matches_single():
    module = init_alignment_module(6, 5, 4, seed=0)
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((7, 6))
    out = align_forward(module, batch)
    for i in range(7):
        np.testing.assert_allclose(out[i], align_forward(module, batch[i]), rtol=1e-12)


def test_module_digest_tracks_parameters():
    module = init_alignment_module(4, 3, 2, seed=0)
    before = module.digest()
    assert module.copy().digest() == before
    module.layer2_bias[...] += 1e-9
    assert module.digest() != before


def test_align_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for trial in range(10):
        module = init_alignment_module(5, 4, 3, seed=trial)
        x = rng.standard_normal(5)
        w = rng.standard_normal(3)  # random linear functional as the loss

        grads = align_gradients(module, x, w)
        for name in grads:
            def loss_at(value, name=name):
                probe = module.copy()
                getattr(probe, name)[...] = value
                return float(w @ align_forward(probe, x))

            numeric = central_difference(
                loss_at, getattr(module, name).copy()
            )
            assert relative_error(grads[name], numeric) < 1e-7


def test_hidden_gradients_into_a_used_buffer_return_the_bytes_of_a_fresh_call():
    module = init_alignment_module(6, 5, 3, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 6))
    up = rng.standard_normal((7, 3))
    hidden = align_hidden(module, x)
    fresh = hidden_gradients(module, x, hidden, up)
    out = np.full_like(module.flat, np.nan)
    grads = hidden_gradients(module, x, hidden, up, out=out)
    assert list(grads) == list(fresh) == list(module.parameters())
    for name, value in fresh.items():
        assert np.shares_memory(grads[name], out), name
        assert grads[name].tobytes() == value.tobytes(), name


def test_align_gradients_batch_sums():
    module = init_alignment_module(5, 4, 3, seed=0)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((6, 5))
    ups = rng.standard_normal((6, 3))
    batch = align_gradients(module, xs, ups)
    summed = {k: np.zeros_like(v) for k, v in batch.items()}
    for i in range(6):
        for k, v in align_gradients(module, xs[i], ups[i]).items():
            summed[k] += v
    for k in batch:
        np.testing.assert_allclose(batch[k], summed[k], rtol=1e-10)


def test_memory_state_rejects_nonfinite():
    with pytest.raises(UnifiedSpaceError):
        MemoryState("p", np.array([np.nan]))


def test_masked_encode_equals_array_split_blocks():
    reg = ParadigmRegistry(23)
    reg.register_paradigm("p", 8, encoder_seed=3)
    for segments in (1, 4, 5, 23, 30):
        content = make_content(d_c=23, seed=segments, segments=segments)
        blocks = np.array_split(np.arange(23), segments)
        assert [list(range(23))[b] for b in segment_blocks(23, segments)] == [
            list(b) for b in blocks
        ]
        for mask in (set(), {0}, set(range(0, segments, 2)), set(range(segments))):
            vec = content.content_vector
            masked = np.zeros_like(vec)
            for idx in mask:
                masked[blocks[idx]] = vec[blocks[idx]]
            expected = np.tanh(reg.get("p").weight @ masked)
            state = reg.encode_state("p", content, mask)
            assert np.array_equal(state.raw, expected)
        with pytest.raises(UnifiedSpaceError, match="out of range"):
            reg.encode_state("p", content, {segments})


def test_gradients_from_hidden_equal_recomputed_formula():
    """Training hands layer 1's activations to the gradient step; the
    result equals the formula that recomputes them, bit for bit."""
    module = init_alignment_module(5, 4, 3, seed=1)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 5))
    up = rng.standard_normal((6, 3))
    hidden = align_hidden(module, x)
    assert np.array_equal(align_output(module, hidden), align_forward(module, x))
    t = np.tanh(x @ module.layer1_weight.T + module.layer1_bias)
    d_pre1 = (up @ module.layer2_weight) * (1.0 - t * t)
    expected = {
        "layer1_weight": d_pre1.T @ x,
        "layer1_bias": d_pre1.sum(axis=0),
        "layer2_weight": up.T @ t,
        "layer2_bias": up.sum(axis=0),
    }
    for grads in (hidden_gradients(module, x, hidden, up), align_gradients(module, x, up)):
        assert grads.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(grads[name], value), name
