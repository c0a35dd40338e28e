"""Learning-rate schedule and AdamW reference behavior."""
import math

import numpy as np
import pytest

from memalign.optim import AdamW, lr_at_step


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
    params = {"p": p0.copy()}
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    opt.step({"p": g})
    m = 0.1 * g
    v = 0.001 * g * g
    expected = p0 - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    np.testing.assert_allclose(params["p"], expected, rtol=1e-12)


def test_adamw_decoupled_weight_decay():
    # Zero gradient: the only movement is the decay term -lr * wd * p.
    p0 = np.array([2.0])
    params = {"p": p0.copy()}
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    opt.step({"p": np.zeros(1)})
    np.testing.assert_allclose(params["p"], p0 - 0.1 * 0.01 * p0, rtol=1e-12)


def test_adamw_converges_on_quadratic():
    params = {"x": np.array([5.0, -3.0])}
    opt = AdamW(params, lr=0.1)
    for _ in range(500):
        opt.step({"x": 2.0 * params["x"]})
    assert np.linalg.norm(params["x"]) < 1e-3


def test_adamw_update_is_deterministic():
    def run():
        params = {"a": np.ones(3), "b": np.full(2, -1.0)}
        opt = AdamW(params, lr=0.01, weight_decay=0.1, total_steps=10, warmup_ratio=0.2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            opt.step({"a": rng.standard_normal(3), "b": rng.standard_normal(2)})
        return params

    a = run()
    b = run()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def _reference_adamw_step(opt, params, grads):
    """The allocating form of one AdamW step: decay by 1 - lr wd, then the
    moment update with the bias corrections and eps folded into scalars."""
    lr = opt.current_lr()
    t = opt.t + 1
    sqrt_bc2 = math.sqrt(1.0 - opt.beta2**t)
    step_size = lr * sqrt_bc2 / (1.0 - opt.beta1**t)
    for name in sorted(params):
        p, g, m, v = params[name], grads[name], opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        p *= 1.0 - lr * opt.weight_decay
        p -= step_size * (m / (np.sqrt(v) + opt.eps * sqrt_bc2))


def _textbook_adamw_step(opt, params, grads):
    """The textbook form of one AdamW step, bias corrections applied to
    the moments."""
    lr = opt.current_lr()
    t = opt.t + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    for name in sorted(params):
        p, g, m, v = params[name], grads[name], opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        p -= lr * (update + opt.weight_decay * p)


# "big" spans two update chunks, the second one partial.
SHAPES = {"w": (64, 16), "b": (16,), "big": (300, 70), "s": ()}
STEP_KWARGS = dict(lr=0.01, weight_decay=0.05, total_steps=30, warmup_ratio=0.2)


def _run_beside(reference_step, check):
    """Thirty AdamW steps beside ``reference_step`` on a copy of the same
    parameters and gradients; ``check(actual, expected)`` after each step."""
    rng = np.random.default_rng(1)
    fast = {k: rng.standard_normal(shape) for k, shape in SHAPES.items()}
    ref = {k: v.copy() for k, v in fast.items()}
    opt = AdamW(fast, **STEP_KWARGS)
    ref_opt = AdamW(ref, **STEP_KWARGS)
    for _ in range(30):
        grads = {k: rng.standard_normal(shape) for k, shape in SHAPES.items()}
        reference_step(ref_opt, ref, grads)
        ref_opt.t += 1
        opt.step(grads)
        for key in fast:
            check(fast[key], ref[key])
            check(opt.m[key], ref_opt.m[key])
            check(opt.v[key], ref_opt.v[key])


def test_adamw_in_place_step_is_bitwise_reference():
    _run_beside(_reference_adamw_step, np.testing.assert_array_equal)


def test_adamw_stays_within_rounding_of_textbook_form():
    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-14)

    _run_beside(_textbook_adamw_step, close)


def test_adamw_rejects_non_contiguous_parameters():
    with pytest.raises(ValueError, match="C-contiguous"):
        AdamW({"w": np.ones((3, 4)).T})


@pytest.mark.parametrize("shape", [(), (1,), (4, 3), (12,)])
def test_adamw_rejects_gradient_of_another_shape(shape):
    params = {"w": np.ones((3, 4))}
    opt = AdamW(params, lr=0.1)
    with pytest.raises(ValueError, match="'w'"):
        opt.step({"w": np.full(shape, 2.0)})
    assert opt.t == 0
    np.testing.assert_array_equal(params["w"], np.ones((3, 4)))
