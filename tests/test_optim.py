"""Learning-rate schedule, AdamW reference behavior and the flat parameter
store that AdamW updates."""
import dataclasses
import math

import numpy as np
import pytest

from memalign.optim import UPDATE_CHUNK, AdamW, lr_at_step
from memalign.retriever import init_retriever
from memalign.unified import init_alignment_module


def test_warmup_is_linear():
    base = 1e-3
    # 100 total steps, 10% warmup -> 10 warmup steps
    for step in range(10):
        assert lr_at_step(step, 100, base, 0.1) == pytest.approx(
            base * (step + 1) / 10
        )


def test_peak_at_end_of_warmup():
    assert lr_at_step(10, 100, 1e-3, 0.1) == pytest.approx(1e-3)


def test_cosine_decays_to_zero():
    base = 1e-3
    lrs = [lr_at_step(s, 100, base, 0.1) for s in range(10, 100)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert lr_at_step(100, 100, base, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_cosine_midpoint_is_half():
    # halfway through the decay span the cosine factor is 1/2
    assert lr_at_step(55, 100, 1.0, 0.1) == pytest.approx(0.5)


def test_no_warmup_schedule():
    assert lr_at_step(0, 100, 1.0, 0.0) == pytest.approx(1.0)


def test_adamw_single_step_reference():
    # One step against the textbook update computed by hand.
    p0 = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    params = p0.copy()
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    opt.step(g)
    m = 0.1 * g
    v = 0.001 * g * g
    expected = p0 - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    np.testing.assert_allclose(params, expected, rtol=1e-12)


def test_adamw_decoupled_weight_decay():
    # Zero gradient: the only movement is the decay term -lr * wd * p.
    p0 = np.array([2.0])
    params = p0.copy()
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    opt.step(np.zeros(1))
    np.testing.assert_allclose(params, p0 - 0.1 * 0.01 * p0, rtol=1e-12)


def test_adamw_converges_on_quadratic():
    params = np.array([5.0, -3.0])
    opt = AdamW(params, lr=0.1)
    for _ in range(500):
        opt.step(2.0 * params)
    assert np.linalg.norm(params) < 1e-3


def test_adamw_update_is_deterministic():
    def run():
        params = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        opt = AdamW(params, lr=0.01, weight_decay=0.1, total_steps=10, warmup_ratio=0.2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            opt.step(rng.standard_normal(5))
        return params

    np.testing.assert_array_equal(run(), run())


def _reference_adamw_step(opt, params, grad):
    """The allocating form of one AdamW step: decay by 1 - lr wd, then the
    moment update with the bias corrections and eps folded into scalars."""
    lr = opt.current_lr()
    t = opt.t + 1
    sqrt_bc2 = math.sqrt(1.0 - opt.beta2**t)
    step_size = lr * sqrt_bc2 / (1.0 - opt.beta1**t)
    m, v = opt.m, opt.v
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * np.square(grad)
    params *= 1.0 - lr * opt.weight_decay
    params -= step_size * (m / (np.sqrt(v) + opt.eps * sqrt_bc2))


def _textbook_adamw_step(opt, params, grad):
    """The textbook form of one AdamW step, bias corrections applied to
    the moments."""
    lr = opt.current_lr()
    t = opt.t + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    m, v = opt.m, opt.v
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * np.square(grad)
    update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
    params -= lr * (update + opt.weight_decay * params)


# Spans two update chunks, the second one partial.
SIZE = UPDATE_CHUNK + 5657
STEP_KWARGS = dict(lr=0.01, weight_decay=0.05, total_steps=30, warmup_ratio=0.2)


def _run_beside(reference_step, check):
    """Thirty AdamW steps beside ``reference_step`` on a copy of the same
    parameters and gradients; ``check(actual, expected)`` after each step."""
    rng = np.random.default_rng(1)
    fast = rng.standard_normal(SIZE)
    ref = fast.copy()
    opt = AdamW(fast, **STEP_KWARGS)
    ref_opt = AdamW(ref, **STEP_KWARGS)
    for _ in range(30):
        grad = rng.standard_normal(SIZE)
        reference_step(ref_opt, ref, grad)
        ref_opt.t += 1
        opt.step(grad)
        check(fast, ref)
        check(opt.m, ref_opt.m)
        check(opt.v, ref_opt.v)


def test_adamw_in_place_step_is_bitwise_reference():
    _run_beside(_reference_adamw_step, np.testing.assert_array_equal)


def test_adamw_stays_within_rounding_of_textbook_form():
    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-14)

    _run_beside(_textbook_adamw_step, close)


@pytest.mark.parametrize("shape", [(), (3, 4), (1, 12)])
def test_adamw_rejects_a_buffer_that_is_not_1d(shape):
    with pytest.raises(ValueError, match="1-D"):
        AdamW(np.ones(shape))


def test_adamw_updates_a_strided_buffer_in_place():
    # Slices of a 1-D view write through, whatever its stride.
    rng = np.random.default_rng(2)
    grads = rng.standard_normal((5, 2 * UPDATE_CHUNK + 3))
    backing = np.ones(2 * grads.shape[1])
    strided, contiguous = backing[::2], np.ones(grads.shape[1])
    opts = [AdamW(p, **STEP_KWARGS) for p in (strided, contiguous)]
    for grad in grads:
        for opt in opts:
            opt.step(grad)
    np.testing.assert_array_equal(backing[::2], contiguous)
    np.testing.assert_array_equal(backing[1::2], 1.0)


@pytest.mark.parametrize("shape", [(), (1,), (4, 3), (11,), (13,)])
def test_adamw_rejects_gradient_of_another_shape(shape):
    params = np.ones(12)
    opt = AdamW(params, lr=0.1)
    with pytest.raises(ValueError, match="gradient has shape"):
        opt.step(np.full(shape, 2.0))
    assert opt.t == 0
    np.testing.assert_array_equal(params, np.ones(12))


MODELS = {
    "retriever": lambda: init_retriever(9, 4, 3, 2, seed=0),
    "alignment": lambda: init_alignment_module(5, 4, 3, seed=0),
}


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS)
def test_every_field_is_a_view_of_flat_in_field_order(make):
    model = make()
    names = [f.name for f in dataclasses.fields(model)]
    assert list(model.parameters()) == names
    model.flat[:] = np.arange(model.flat.size)
    buffer = np.arange(float(model.flat.size))
    views, start = model.views(buffer), 0
    assert list(views) == names
    for name in names:
        param = getattr(model, name)
        assert param.dtype == np.float64 and param.flags.c_contiguous, name
        expected = np.arange(start, start + param.size).reshape(param.shape)
        # The field sees the write to flat, and views lays buffer out alike.
        np.testing.assert_array_equal(param, expected)
        np.testing.assert_array_equal(views[name], expected)
        assert np.shares_memory(views[name], buffer), name
        start += param.size
    assert start == model.flat.size == model.flat.shape[0]


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS)
def test_copy_owns_its_buffer(make):
    model = make()
    twin = model.copy()
    assert type(twin) is type(model)
    assert not np.shares_memory(twin.flat, model.flat)
    np.testing.assert_array_equal(twin.flat, model.flat)
    twin.flat[...] += 1.0
    assert not np.any(twin.flat == model.flat)


@pytest.mark.parametrize("make", MODELS.values(), ids=MODELS)
def test_rebinding_a_field_is_refused(make):
    model = make()
    for name in ("flat", *model.parameters()):
        value = getattr(model, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value.copy())
        assert getattr(model, name) is value
